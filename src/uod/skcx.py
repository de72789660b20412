"""The archimedean symbol double complex and its quotient descriptions of
sign-homology.

Symbols [a, g, n] carry a numerator a over f^N, a squarefree divisor g of f,
and a Tate degree n; the bidegree is (number of primes of g, n).  The
vertical differential is

    delta [a,g,n] = (-1)^m ([a,g,n-1] + (-1)^n [-a,g,n-1]),

and the horizontal one removes one prime at a time,

    partial [a,g,n] = sum_i (-1)^{i-1} ([a, g/p_i, n] - sum_{p_i b = a} [b, g/p_i, n]),

with preimages whose denominator escapes f^N dropped: those symbols span a
sub-double-complex, so the truncated object is an honest quotient complex.

Two quotients compute the sign-homology of the level tower.  Killing the
subgroup generated by symbols with g != 1 together with the prime-level
boundaries leaves the distribution-relation presentation with its
two-periodic sign differential; killing all symbols with nonzero numerator
leaves one copy of the scalar double complex with operators 0 and vertical
pair [2; 0], whose total homology is (Z/2)^{2^{r-1}} in every degree.

The symbol double complex is the Koszul-Tate complex of the distribution
operators: ``build_sk`` returns ``chainkit.build_kt`` of the module
Z^{f^N} with the Koszul operators T_p = 1 - Psi_p (Psi_p the p-fiber sum
above) and the sign pair plus = 1 + neg, minus = 1 - neg, with neg the
numerator negation.  Every matrix is a ``znf.SparseMatrix``.  ``build_kt``
does not validate the double complex; ``ActionModule`` certifies that the
T_p, plus and minus commute pairwise, and ``build_kt`` that plus * minus
= 0, which together imply d^2 = 0 both ways and anticommutation.

The via-N quotient is the free quotient certified by the triangular peel of
the boundary relations (the columns of T_p at the multiples of p) onto the
depth-zero numerators (``znf.complement_projection``), the same certificate
as the direct route's depth-zero basis; its induced differentials P d S
stay sparse.  The numerator-killed route checks that the nonzero numerators
span a subcomplex and is then ``build_kt`` of the 1x1 module of the
numerator-0 entries; only ``sk_inclusion_check`` converts its total
complexes with ``dense()``, for the chain map and the subquotients it
compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod

from .arith import ARCHIMEDEAN, xi_from_fraction
from .chainkit import (
    ActionModule,
    ChainComplex,
    ChainMap,
    DoubleComplex,
    HomologyTable,
    build_kt,
    companion,
)
from .distmod import BasisCertificateFailed, depth
from .signh import acts_as_identity, induced_kernel
from .znf import (
    FreeQuotient,
    IntMatrix,
    NotAComplement,
    SparseMatrix,
    complement_projection,
    homology_pair,
)


class NotSquarefree(ValueError):
    pass


@dataclass
class SkComplex:
    f: int
    level: int
    window: tuple
    denominator: int             # f^level
    primes: tuple
    divisors_by_size: dict       # m -> divisors of f with m prime factors, in subset order
    module: ActionModule         # Z^{f^level} with the T_p, plus = 1 + neg, minus = 1 - neg
    double: DoubleComplex


def build_sk(f: int, level: int, window=None) -> SkComplex:
    """The level-f^N symbol double complex: ``build_kt`` of the module
    Z^{f^N} with the Koszul operators T_p and the sign pair 1 +- neg.

    Block g of row m belongs to the divisor whose primes form the m-subset
    at that position in ``build_kt``'s subset order (``divisors_by_size``).
    ``ActionModule`` certifies that the operators commute, and ``build_kt``
    that plus * minus = 0; together they make the blocks a double complex.
    """
    if f <= 1:
        raise NotSquarefree("need f > 1")
    factors = ARCHIMEDEAN.factor(f)
    if any(e > 1 for _, e in factors):
        raise NotSquarefree(f"{f} is not squarefree")
    primes = tuple(p for p, _ in factors)
    denom = f**level
    names = _ideal_names(primes)
    plus, minus = _sign_differentials(denom)
    ops = {name: _fiber_operator(p, denom) for name, p in zip(names, primes)}
    module = ActionModule(denom, ops | {"plus": plus, "minus": minus})
    double = build_kt(module, names, "plus", "minus", window)
    by_size = {
        m: [prod(subset) for subset in combinations(primes, m)]
        for m in range(len(primes) + 1)
    }
    return SkComplex(f, level, (double.n_lo, double.n_hi), denom, primes, by_size,
                     module, double)


def _ideal_names(primes) -> list[str]:
    return [f"T{p}" for p in primes]


def _fiber_operator(p: int, denom: int) -> SparseMatrix:
    """T_p = 1 - Psi_p on Z^denom, where Psi_p e_a is the p-fiber sum
    e_{(a + j denom)/p} over 0 <= j < p if p | a, and 0 otherwise."""
    columns = []
    for a in range(denom):
        col = {a: 1}
        if a % p == 0:
            for j in range(p):
                b = (a + j * denom) // p
                col[b] = col.get(b, 0) - 1
        columns.append(col)
    return SparseMatrix(denom, columns)


def _sign_differentials(denom: int) -> tuple[SparseMatrix, SparseMatrix]:
    """1 + neg and 1 - neg, with neg the permutation a -> -a mod ``denom``.

    Column a is {a: 1, -a: +-1}, or {a: 2} and {} where a = -a.
    """
    plus, minus = [], []
    for a in range(denom):
        b = -a % denom
        if a == b:
            plus.append({a: 2})
            minus.append({})
        else:
            plus.append({a: 1, b: 1})
            minus.append({a: 1, b: -1})
    return SparseMatrix(denom, plus), SparseMatrix(denom, minus)


def distribution_presentation(sk: SkComplex) -> SparseMatrix:
    """Boundary relations of the g = 1 row that live entirely at this level.

    A prime boundary [a] - sum of its p-fiber belongs to the level-N span
    exactly when p divides the numerator (otherwise the whole fiber escapes
    to level N+1), so those are the relations of the level-N piece of the
    boundary quotient; they present the universal distribution at level f^N.
    They are the columns of T_p at the multiples of p.
    """
    denom = sk.denominator
    return SparseMatrix(denom, [
        sk.module.operator(name).entries[a]
        for name, p in zip(_ideal_names(sk.primes), sk.primes)
        for a in range(0, denom, p)
    ])


def depth_zero_numerators(denom: int) -> list[int]:
    """The numerators a whose class a/denom has depth zero."""
    return [
        a for a in range(denom)
        if depth(ARCHIMEDEAN, xi_from_fraction(ARCHIMEDEAN, a, denom)) == 0
    ]


def _via_n_quotient(sk: SkComplex):
    """The boundary quotient, free on the depth-zero numerators, and the
    sign differentials it induces.

    The triangular peel certifies Z^{f^N} = span(kept numerators) + im(R),
    so the quotient is free on the kept numerators; ``FreeQuotient.induce``
    checks that 1 +- neg preserves the relations before inducing it.  A
    failed peel is a certificate failure, never a FAIL verdict, and nothing
    falls back to a Smith reduction.
    """
    denom = sk.denominator
    rel = distribution_presentation(sk)
    keep = depth_zero_numerators(denom)
    try:
        projection = complement_projection(rel, keep)
    except NotAComplement as exc:
        raise BasisCertificateFailed(
            f"the boundary relations at level {denom} do not peel onto the "
            f"depth-zero numerators: {exc}"
        ) from exc
    quotient = FreeQuotient(rel, projection, SparseMatrix(denom, [{a: 1} for a in keep]))
    even, odd = sk.module.operator("plus"), sk.module.operator("minus")
    return quotient, quotient.induce(even), quotient.induce(odd)


def via_n_complex(sk: SkComplex) -> ChainComplex:
    """Level-N piece of the total complex of the boundary quotient.

    In the full tower the quotient by the subgroup generated by the g != 1
    symbols and the prime boundaries is concentrated on the g = 1 row and is
    the sign complex of the limit distribution module.  Its level-N piece is
    spanned by the level-N numerators with the boundary relations that stay
    at this level, so homology here is the sign-homology of the level-f^N
    distribution module; agreement between consecutive N is checked by the
    callers rather than assumed.  The peel makes that piece free on the
    depth-zero numerators, and the complex is returned there, with the
    sparse induced differentials.
    """
    lo, hi = sk.window
    quotient, even, odd = _via_n_quotient(sk)
    ranks = {n: quotient.section.cols for n in range(lo, hi + 1)}
    diff = {n: even if n % 2 == 0 else odd for n in range(lo + 1, hi + 1)}
    return ChainComplex(ranks, diff, stable=(lo + 1, hi - 1))


def via_skprime_complex(sk: SkComplex):
    """Total complex of the quotient by all symbols with nonzero numerator.

    Those symbols span a subcomplex exactly when no operator of the module
    sends a nonzero numerator to numerator 0: row 0 of every operator is
    zero off column 0, which is checked in O(nnz) and raises
    ``BasisCertificateFailed`` if it fails.  The quotient is then
    ``build_kt`` of the 1x1 module of the operators' numerator-0 entries.

    Returns (complex, layout) where layout maps each total degree to the
    ordered list of (m, n, divisor) blocks of size one.
    """
    lo, hi = sk.window
    ops = {}
    for name, op in sk.module.operators.items():
        if any(0 in col for col in op.entries[1:]):
            raise BasisCertificateFailed(
                f"{name} sends a nonzero numerator to numerator 0 at level "
                f"{sk.denominator}: the numerator-killed quotient is not a complex"
            )
        ops[name] = SparseMatrix(1, [{0: op.entries[0].get(0, 0)}])
    scalar = build_kt(ActionModule(1, ops), _ideal_names(sk.primes), "plus", "minus", sk.window)
    total = companion(scalar, "KTtot")
    layout = {}
    for t in range(lo, hi + len(sk.primes) + 1):
        blocks = []
        for m, divisors in sk.divisors_by_size.items():
            n = t - m
            if lo <= n <= hi:
                blocks.extend((m, n, g) for g in divisors)
        layout[t] = blocks
    return total, layout


def kt_reference(f: int, window=None) -> ChainComplex:
    """KT^tot(Z, {0}_{p|f}, [2; 0]) built through the generic constructor."""
    r = len(ARCHIMEDEAN.factor(f))
    ops = {f"p{i}": IntMatrix([[0]]) for i in range(r)}
    ops["plus"] = IntMatrix([[2]])
    ops["minus"] = IntMatrix([[0]])
    module = ActionModule(1, ops)
    kt = build_kt(module, [f"p{i}" for i in range(r)], "plus", "minus", window)
    return companion(kt, "KTtot")


@dataclass(frozen=True)
class SkComparison:
    via_n: HomologyTable
    via_skprime: HomologyTable
    kt: HomologyTable
    agree: bool


def sk_quotients_homology(sk: SkComplex) -> SkComparison:
    """The two quotient routes and the scalar KT reference, compared."""
    table_n = via_n_complex(sk).homology()
    total, _ = via_skprime_complex(sk)
    table_prime = total.homology()
    table_kt = kt_reference(sk.f, sk.window).homology()
    agree = (
        table_n.agrees_with(table_prime)
        and table_prime.agrees_with(table_kt)
        and table_n.agrees_with(table_kt)
    )
    return SkComparison(table_n, table_prime, table_kt, agree)


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
    sk_f = build_sk(f, level, window)
    sk_g = build_sk(g, level, window)
    total_f, layout_f = via_skprime_complex(sk_f)
    total_g, layout_g = via_skprime_complex(sk_g)
    # the chain map and the subquotients need dense lattice algebra
    total_f, total_g = _dense_complex(total_f), _dense_complex(total_g)
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
        src = homology_pair(total_f.differential(n), total_f.differential(n + 1))
        dst = homology_pair(total_g.differential(n), total_g.differential(n + 1))
        kernel = induced_kernel(components[n], src, dst)
        degrees[n] = (src.invariants, dst.invariants, kernel)
        if not kernel.is_trivial:
            injective = False
    return InclusionReport(injective, degrees)


def _dense_complex(c: ChainComplex) -> ChainComplex:
    """``c`` with its differentials as ``IntMatrix``; already checked."""
    diff = {n: d.dense() for n, d in c.diff.items()}
    return ChainComplex(c.ranks, diff, stable=c.stable, check=False)


def sign_action_trivial_on_via_n(sk: SkComplex) -> tuple[int, int]:
    """How many unit classes act as the identity on the boundary-route homology."""
    denom = sk.denominator
    quotient, even, odd = _via_n_quotient(sk)
    d_even, d_odd = even.dense(), odd.dense()
    spots = [homology_pair(d_even, d_odd), homology_pair(d_odd, d_even)]
    units = [t for t in range(denom) if gcd(t, denom) == 1]
    trivial = 0
    for t in units:
        perm = SparseMatrix(denom, [{t * a % denom: 1} for a in range(denom)])
        op = quotient.induce(perm).dense()
        if all(acts_as_identity(op, spot) for spot in spots):
            trivial += 1
    return trivial, len(units)
