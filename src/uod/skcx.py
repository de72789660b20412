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

Every matrix of the symbol complex is a ``znf.SparseMatrix``: a column of
the horizontal differential has at most p + 1 nonzeros per prime of g, and
the vertical one is 1 +- neg, with neg the numerator negation.  The via-N
quotient is the free quotient certified by the triangular peel of the
boundary relations onto the depth-zero numerators
(``znf.complement_projection``), the same certificate as the direct route's
depth-zero basis; its induced differentials P d S stay sparse.  The
numerator-killed route keeps its blocks sparse into ``total_complex``; only
``sk_inclusion_check`` converts its total complexes with ``dense()``, for
the chain map and the subquotients it compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import ARCHIMEDEAN, xi_from_fraction
from .chainkit import (
    ActionModule,
    ChainComplex,
    ChainMap,
    DoubleComplex,
    HomologyTable,
    WindowTooSmall,
    build_kt,
    companion,
    total_complex,
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
    repeat_diagonal,
)


class NotSquarefree(ValueError):
    pass


@dataclass(frozen=True)
class SkSymbol:
    numerator: int       # over the fixed denominator f^N
    divisor: int         # squarefree g | f
    degree: int

    def bidegree(self, primes_of):
        return (len(primes_of(self.divisor)), self.degree)


@dataclass
class SkComplex:
    f: int
    level: int
    window: tuple
    denominator: int             # f^level
    primes: tuple
    divisors_by_size: dict       # m -> divisors of f with m prime factors
    double: DoubleComplex

    def symbols(self, m: int, n: int):
        out = []
        for g in self.divisors_by_size[m]:
            for a in range(self.denominator):
                out.append(SkSymbol(a, g, n))
        return out

    def index_of(self, sym: SkSymbol) -> int:
        m = len([p for p in self.primes if sym.divisor % p == 0])
        gi = self.divisors_by_size[m].index(sym.divisor)
        return gi * self.denominator + sym.numerator

    def delta_symbol(self, sym: SkSymbol) -> dict:
        m = sum(1 for p in self.primes if sym.divisor % p == 0)
        sign = -1 if m % 2 else 1
        out: dict = {}
        down = SkSymbol(sym.numerator, sym.divisor, sym.degree - 1)
        out[down] = out.get(down, 0) + sign
        mirrored = SkSymbol(
            (-sym.numerator) % self.denominator, sym.divisor, sym.degree - 1
        )
        parity = 1 if sym.degree % 2 == 0 else -1
        out[mirrored] = out.get(mirrored, 0) + sign * parity
        return {k: v for k, v in out.items() if v}

    def partial_symbol(self, sym: SkSymbol) -> dict:
        out: dict = {}
        primes = [p for p in self.primes if sym.divisor % p == 0]
        for i, p in enumerate(primes):
            sign = -1 if i % 2 else 1
            smaller = sym.divisor // p
            keep = SkSymbol(sym.numerator, smaller, sym.degree)
            out[keep] = out.get(keep, 0) + sign
            if sym.numerator % p == 0:
                for j in range(p):
                    b = (sym.numerator + j * self.denominator) // p
                    pre = SkSymbol(b, smaller, sym.degree)
                    out[pre] = out.get(pre, 0) - sign
        return {k: v for k, v in out.items() if v}


def build_sk(f: int, level: int, window=None) -> SkComplex:
    """Assemble and validate the level-f^N symbol double complex."""
    if f <= 1:
        raise NotSquarefree("need f > 1")
    factors = ARCHIMEDEAN.factor(f)
    if any(e > 1 for _, e in factors):
        raise NotSquarefree(f"{f} is not squarefree")
    primes = tuple(p for p, _ in factors)
    r = len(primes)
    if window is None:
        window = (-(r + 3), r + 3)
    lo, hi = window
    if hi - lo + 1 < 2 * r + 4:
        raise WindowTooSmall(f"window shorter than {2 * r + 4}")
    denom = f**level

    divisors = sorted(d for d in range(1, f + 1) if f % d == 0)
    by_size = {}
    for d in divisors:
        m = sum(1 for p in primes if d % p == 0)
        by_size.setdefault(m, []).append(d)

    ranks = {}
    horiz = {}
    vert = {}
    plus, minus = _sign_differentials(denom)

    horiz_per_m = {}
    for m in range(r + 1):
        count = len(by_size.get(m, []))
        for n in range(lo, hi + 1):
            ranks[(m, n)] = count * denom
        if m == 0:
            continue
        rows = len(by_size.get(m - 1, [])) * denom
        columns = []
        for g in by_size[m]:
            gprimes = [p for p in primes if g % p == 0]
            targets = [
                (-1 if i % 2 else 1, p, by_size[m - 1].index(g // p) * denom)
                for i, p in enumerate(gprimes)
            ]
            for a in range(denom):
                col = {}
                for sign, p, t0 in targets:
                    col[t0 + a] = col.get(t0 + a, 0) + sign
                    if a % p == 0:
                        for j in range(p):
                            b = t0 + (a + j * denom) // p
                            col[b] = col.get(b, 0) - sign
                columns.append(col)
        horiz_per_m[m] = SparseMatrix(rows, columns)
    for m in range(1, r + 1):
        for n in range(lo, hi + 1):
            horiz[(m, n)] = horiz_per_m[m]

    vert_blocks = {}
    for m in range(r + 1):
        count = len(by_size.get(m, []))
        sign = -1 if m % 2 else 1
        vert_blocks[m] = (
            repeat_diagonal(plus, count, sign),
            repeat_diagonal(minus, count, sign),
        )
    for m in range(r + 1):
        for n in range(lo + 1, hi + 1):
            vert[(m, n)] = vert_blocks[m][0] if n % 2 == 0 else vert_blocks[m][1]

    double = DoubleComplex(r, lo, hi, ranks, horiz, vert)
    return SkComplex(f, level, (lo, hi), denom, primes, by_size, double)


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
    """
    denom = sk.denominator
    cols = []
    for p in sk.primes:
        for a in range(0, denom, p):
            col = {a: 1}
            for j in range(p):
                b = (a + j * denom) // p
                col[b] = col.get(b, 0) - 1
            cols.append(col)
    return SparseMatrix(denom, cols)


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
    even, odd = _sign_differentials(denom)
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

    Returns (complex, layout) where layout maps each total degree to the
    ordered list of (m, n, divisor) blocks of size one.
    """
    lo, hi = sk.window
    r = len(sk.primes)
    denom = sk.denominator
    ranks = {}
    horiz = {}
    vert = {}
    for (m, n), rank in sk.double.ranks.items():
        count = rank // denom
        ranks[(m, n)] = count
    zero_rows = {
        m: [gi * denom for gi in range(len(sk.divisors_by_size.get(m, [])))]
        for m in range(r + 1)
    }
    for (m, n), mat in sk.double.horiz.items():
        horiz[(m, n)] = mat.submatrix(zero_rows[m - 1], zero_rows[m])
    for (m, n), mat in sk.double.vert.items():
        vert[(m, n)] = mat.submatrix(zero_rows[m], zero_rows[m])
    quotient = DoubleComplex(r, lo, hi, ranks, horiz, vert)
    total = total_complex(quotient, stable=(lo + r + 2, hi - 2))
    layout = {}
    for t in range(lo, hi + r + 1):
        blocks = []
        for m in range(r + 1):
            n = t - m
            if lo <= n <= hi:
                for g in sk.divisors_by_size.get(m, []):
                    blocks.append((m, n, g))
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
