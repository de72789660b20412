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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import ARCHIMEDEAN
from .chainkit import (
    ActionModule,
    ChainComplex,
    ChainMap,
    DoubleComplex,
    HomologyTable,
    PresentedComplex,
    WindowTooSmall,
    build_kt,
    companion,
    total_complex,
)
from .signh import acts_as_identity, induced_kernel
from .znf import IntMatrix, block_diagonal, cokernel, homology_pair


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
        cols = count * denom
        data = [[0] * cols for _ in range(rows)]
        for gi, g in enumerate(by_size[m]):
            gprimes = [p for p in primes if g % p == 0]
            for i, p in enumerate(gprimes):
                sign = -1 if i % 2 else 1
                target = g // p
                ti = by_size[m - 1].index(target)
                for a in range(denom):
                    col = gi * denom + a
                    data[ti * denom + a][col] += sign
                    if a % p == 0:
                        for j in range(p):
                            b = (a + j * denom) // p
                            data[ti * denom + b][col] -= sign
        horiz_per_m[m] = IntMatrix(data, cols=cols)
    for m in range(1, r + 1):
        for n in range(lo, hi + 1):
            horiz[(m, n)] = horiz_per_m[m]

    vert_blocks = {}
    for m in range(r + 1):
        count = len(by_size.get(m, []))
        sign = -1 if m % 2 else 1
        even = block_diagonal([plus.scale(sign)] * count)
        odd = block_diagonal([minus.scale(sign)] * count)
        vert_blocks[m] = (even, odd)
    for m in range(r + 1):
        for n in range(lo + 1, hi + 1):
            vert[(m, n)] = vert_blocks[m][0] if n % 2 == 0 else vert_blocks[m][1]

    double = DoubleComplex(r, lo, hi, ranks, horiz, vert)
    return SkComplex(f, level, (lo, hi), denom, primes, by_size, double)


def _sign_differentials(denom: int) -> tuple[IntMatrix, IntMatrix]:
    """1 + neg and 1 - neg, with neg the permutation a -> -a mod ``denom``."""
    neg = IntMatrix.from_columns(
        [[1 if i == (-a) % denom else 0 for i in range(denom)] for a in range(denom)]
    )
    ident = IntMatrix.identity(denom)
    return ident + neg, ident - neg


def distribution_presentation(sk: SkComplex) -> IntMatrix:
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
            col = [0] * denom
            col[a] += 1
            for j in range(p):
                col[(a + j * denom) // p] -= 1
            cols.append(col)
    return IntMatrix.from_columns(cols, rows=denom)


def via_n_complex(sk: SkComplex) -> PresentedComplex:
    """Level-N piece of the total complex of the boundary quotient.

    In the full tower the quotient by the subgroup generated by the g != 1
    symbols and the prime boundaries is concentrated on the g = 1 row and is
    the sign complex of the limit distribution module.  Its level-N piece is
    spanned by the level-N numerators with the boundary relations that stay
    at this level, so homology here is the sign-homology of the level-f^N
    distribution module; agreement between consecutive N is checked by the
    callers rather than assumed.
    """
    lo, hi = sk.window
    denom = sk.denominator
    rel = distribution_presentation(sk)
    even, odd = _sign_differentials(denom)
    ranks = {n: denom for n in range(lo, hi + 1)}
    rels = {n: rel for n in range(lo, hi + 1)}
    diff = {n: even if n % 2 == 0 else odd for n in range(lo + 1, hi + 1)}
    return PresentedComplex(ranks, rels, diff, stable=(lo + 1, hi - 1))


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


def sign_action_trivial_on_via_n(sk: SkComplex) -> tuple[int, int]:
    """How many unit classes act as the identity on the boundary-route homology."""
    denom = sk.denominator
    rel = distribution_presentation(sk)
    cok = cokernel(rel)
    if not cok.invariants.is_free:
        raise RuntimeError("boundary-route presentation unexpectedly has torsion")
    even, odd = _sign_differentials(denom)
    d_even = cok.projection * even * cok.section
    d_odd = cok.projection * odd * cok.section
    spots = [homology_pair(d_even, d_odd), homology_pair(d_odd, d_even)]
    units = [t for t in range(denom) if gcd(t, denom) == 1]
    trivial = 0
    for t in units:
        perm = IntMatrix.from_columns(
            [[1 if i == (t * a) % denom else 0 for i in range(denom)] for a in range(denom)]
        )
        if not (cok.projection * (perm * rel)).is_zero():
            raise RuntimeError("unit action does not preserve the relations")
        op = cok.projection * perm * cok.section
        if all(acts_as_identity(op, spot) for spot in spots):
            trivial += 1
    return trivial, len(units)
