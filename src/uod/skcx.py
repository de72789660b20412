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
operators: ``chainkit.build_kt`` of the module Z^{f^N} with the Koszul
operators T_p = 1 - Psi_p (Psi_p the p-fiber sum above) and the sign pair
plus = 1 + neg, minus = 1 - neg, with neg the numerator negation.  Psi_p is
the fiber sum of the map b -> p b mod f^N, so every operator is a
``chainkit.MapOperator`` on the numerators.  Both quotients read the module
alone, so ``build_sk`` returns the module and makes the checks that make
``build_kt`` of it a double complex: ``ActionModule`` certifies on the maps
that the T_p, plus and minus commute pairwise, and plus * minus = 0 is
checked as neg o neg = id, which together imply d^2 = 0 both ways and
anticommutation.  Neither check multiplies a matrix.  Every matrix is a
``znf.SparseMatrix``.

The via-N quotient is the free quotient certified by the triangular peel of
the boundary relations (the columns of T_p at the multiples of p, each read
off the map as the fiber above it, with no other column of T_p built) onto
the depth-zero numerators (``znf.complement_projection``), the same
certificate as the direct route's depth-zero basis; plus and minus preserve
the relations by a witness on the neg map, so ``signh.tate_spots`` induces
plus, the orbit sums of neg, as the norm P (1 + neg) S with no product
against the relations, and it stays sparse.  The numerator-killed
route checks on each map that the nonzero numerators span a subcomplex and
reads ``chainkit.scalar_kt`` of the numerator-0 entries of the operators,
shift + scale, with no matrix built.  Those entries are ([0] * r, 2, 0),
the scalar KT reference's own data, so the two read one memoised table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .arith import ARCHIMEDEAN
from .chainkit import (
    ActionModule,
    HomologyTable,
    MapOperator,
    _check_window,
    check_plus_minus,
    homology_table,
    scalar_kt,
)
from .distmod import BasisCertificateFailed, level_partition, position_matrix
from .signh import tate_spots
from .znf import (
    FreeQuotient,
    InducedOperatorUndefined,
    NotAComplement,
    SparseMatrix,
    _sparse,
    complement_projection,
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


def build_sk(f: int, level: int, window=None) -> SkComplex:
    """The level-f^N symbol double complex, as the module Z^{f^N} with the
    Koszul operators T_p and the sign pair 1 +- neg.

    ``chainkit.build_kt`` of that module is the double complex; no command
    reads it whole, so it is not built here, but every check it would make
    is: the window (``WindowTooSmall``), the commutation certificate of
    ``ActionModule`` (``NonCommutingOperators``) and plus * minus = 0
    (``chainkit.check_plus_minus``, ``PlusMinusNotZero``).  Block g of row
    m belongs to the divisor whose primes form the m-subset at that position
    in ``build_kt``'s subset order (``divisors_by_size``).
    """
    if f <= 1:
        raise NotSquarefree("need f > 1")
    factors = ARCHIMEDEAN.factor(f)
    if any(e > 1 for _, e in factors):
        raise NotSquarefree(f"{f} is not squarefree")
    primes = tuple(p for p, _ in factors)
    window = _check_window(window, len(primes))
    denom = f**level
    names = _ideal_names(primes)
    plus, minus = _sign_differentials(denom)
    ops = {name: _fiber_operator(p, denom) for name, p in zip(names, primes)}
    module = ActionModule(denom, ops | {"plus": plus, "minus": minus})
    check_plus_minus(module, "plus", "minus")
    by_size = {
        m: [prod(subset) for subset in combinations(primes, m)]
        for m in range(len(primes) + 1)
    }
    return SkComplex(f, level, window, denom, primes, by_size, module)


def _ideal_names(primes) -> list[str]:
    return [f"T{p}" for p in primes]


def _fiber_operator(p: int, denom: int) -> MapOperator:
    """T_p = 1 - Psi_p on Z^denom, where Psi_p e_a is the p-fiber sum
    e_{(a + j denom)/p} over 0 <= j < p if p | a, and 0 otherwise: the
    fiber sum of the map b -> p b mod ``denom``."""
    return MapOperator(tuple(p * b % denom for b in range(denom)), shift=1, scale=-1)


def _sign_differentials(denom: int) -> tuple[MapOperator, MapOperator]:
    """1 + neg and 1 - neg, with neg the permutation a -> -a mod ``denom``.

    Column a is {a: 1, -a: +-1}, or {a: 2} and {} where a = -a.
    """
    neg = tuple(-a % denom for a in range(denom))
    return MapOperator(neg, shift=1), MapOperator(neg, shift=1, scale=-1)


def distribution_presentation(sk: SkComplex) -> SparseMatrix:
    """Boundary relations of the g = 1 row that live entirely at this level.

    A prime boundary [a] - sum of its p-fiber belongs to the level-N span
    exactly when p divides the numerator (otherwise the whole fiber escapes
    to level N+1), so those are the relations of the level-N piece of the
    boundary quotient; they present the universal distribution at level f^N.
    They are the columns of T_p at the multiples of p, each built alone
    from the map as the fiber above it (``ActionModule.columns``), with no
    other column of T_p built.
    """
    return _sparse(sk.denominator, tuple(
        col
        for name, p in zip(_ideal_names(sk.primes), sk.primes)
        for col in sk.module.columns(name, slice(None, None, p))
    ))


def depth_zero_numerators(denom: int) -> list[int]:
    """The numerators a whose class a/denom has depth zero, ascending.

    They are read by divisor blocks, as in ``arith.LevelTable``: the class
    [u/d] of exact order d | denom has numerator u (denom/d), and the zero
    class has depth zero."""
    keep = [0]
    for d in ARCHIMEDEAN.divisors(denom)[1:]:
        depths = level_partition(ARCHIMEDEAN, d).depths.items()
        keep += [u * (denom // d) for u, dep in depths if dep == 0]
    return sorted(keep)


def _via_n_quotient(sk: SkComplex):
    """The boundary quotient, free on the depth-zero numerators, and the map
    of neg, certified to preserve its relations.

    The triangular peel certifies Z^{f^N} = span(kept numerators) + im(R),
    so the quotient is free on the kept numerators.  The relations are the
    columns T_p e_a at the multiples a of p.  ``build_sk`` has certified
    that 1 +- neg commutes with every T_p, so neg T_p e_a = T_p e_{-a}, which
    lies in im(R) once neg maps the multiples of p onto themselves.  That
    is checked once on each distinct map of plus and minus, or
    InducedOperatorUndefined, so neg induces gamma = P neg S with no
    product against R, and since P S = 1 the sign pair induces
    P (1 +- neg) S = 1 +- gamma.  Nothing is induced here.  A failed peel
    is a certificate failure, never a FAIL verdict, and nothing falls back
    to a Smith reduction.
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
    quotient = FreeQuotient(rel, projection, position_matrix(denom, keep))
    negs = {name: sk.module.maps[name].images for name in ("plus", "minus")}
    if negs["minus"] is negs["plus"]:
        # build_sk gives both the one interned neg map: walk it once
        del negs["minus"]
    for name, neg in negs.items():
        if any(neg[a] % p for p in sk.primes for a in range(0, denom, p)):
            raise InducedOperatorUndefined(
                f"{name} does not preserve the relations: neg moves a multiple "
                "of a prime off the multiples"
            )
    return quotient, MapOperator(sk.module.maps["plus"].images)


def via_n_homology(sk: SkComplex) -> HomologyTable:
    """Homology of the level-N piece of the total complex of the boundary
    quotient, on the window.

    In the full tower the quotient by the subgroup generated by the g != 1
    symbols and the prime boundaries is concentrated on the g = 1 row and is
    the sign complex of the limit distribution module.  Its level-N piece is
    spanned by the level-N numerators with the boundary relations that stay
    at this level, so homology here is the sign-homology of the level-f^N
    distribution module; agreement between consecutive N is checked by the
    callers rather than assumed.  The peel makes that piece free on the k
    depth-zero numerators, where the complex is Z^k in every degree of the
    window, with 1 + gamma out of the even degrees and 1 - gamma out of the
    odd ones.  So its homology, edge degrees included, is
    ``chainkit.homology_table`` of the two (rank, torsion) pairs of
    ``signh.tate_spots`` at m = 2, the norm 1 + gamma and 1 - gamma.  Its
    certificate gamma^2 = 1, the walk over neg's cycles, is d o d = 0,
    since (1 + gamma)(1 - gamma) = 1 - gamma^2.  The complex itself is
    never built.
    """
    lo, hi = sk.window
    quotient, neg = _via_n_quotient(sk)
    plus, minus = tate_spots(quotient, neg, 2)
    spots = {n: minus if n % 2 else plus for n in range(lo + 1, hi + 1)}
    return homology_table({n: quotient.section.cols for n in range(lo, hi + 1)}, spots,
                          stable=(lo + 1, hi - 1))


def via_skprime_homology(sk: SkComplex) -> HomologyTable:
    """Homology of the total complex of the quotient by all symbols with
    nonzero numerator.

    Those symbols span a subcomplex exactly when no operator of the module
    sends a nonzero numerator to numerator 0: row 0 of every operator is
    zero off column 0.  Row 0 of shift * 1 + scale * Op(y, nu) off the
    diagonal is scale at column y(0), so that holds exactly when y(0) = 0,
    which is read off each map, or ``BasisCertificateFailed``.  Then 0 is
    in the image of y, so the numerator-0 entry is shift + scale, and the
    quotient is the complex of ``scalar_kt`` of those entries, whose
    memoised table this is.  No matrix of the module is built.

    The total degree t holds the symbols [0, g, t - m] for the divisors g
    with m primes, in ``divisors_by_size`` order within each row m.
    """
    scalars = {}
    for name, op in sk.module.maps.items():
        if op.images[0] != 0:
            raise BasisCertificateFailed(
                f"{name} sends a nonzero numerator to numerator 0 at level "
                f"{sk.denominator}: the numerator-killed quotient is not a complex"
            )
        scalars[name] = op.shift + op.scale
    return scalar_kt([scalars[name] for name in _ideal_names(sk.primes)],
                     scalars["plus"], scalars["minus"], sk.window)


@dataclass(frozen=True)
class SkComparison:
    via_n: HomologyTable
    via_skprime: HomologyTable
    kt: HomologyTable
    agree: bool


def sk_quotients_homology(sk: SkComplex) -> SkComparison:
    """The two quotient routes and the scalar KT reference, compared."""
    table_n = via_n_homology(sk)
    table_prime = via_skprime_homology(sk)
    table_kt = scalar_kt([0] * len(sk.primes), 2, 0, sk.window)
    agree = (
        table_n.agrees_with(table_prime)
        and table_prime.agrees_with(table_kt)
        and table_n.agrees_with(table_kt)
    )
    return SkComparison(table_n, table_prime, table_kt, agree)
