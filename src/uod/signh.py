"""Tate homology of the cyclic sign group and the rank theorem verifiers.

Conventions: for a generator gamma of order m acting on a free Z-module,

    even := ker(1 - gamma) / im(norm),   odd := ker(norm) / im(1 - gamma),

with norm = 1 + gamma + ... + gamma^{m-1}: the Tate homology of a cyclic
group (Brown, Cohomology of Groups, Ch. VI).  Both theories are
two-periodic; tables are reported at degrees 0 (even) and 1 (odd).  Sign-cohomology is the
same list read with degrees i and 1-i paired, so only homology is computed.
Only invariants are computed, never cycle representatives.

The sign generator acts on a free quotient Z^n / im(R) (``znf.FreeQuotient``:
U(f), or the via-N quotient of ``skcx``) as gamma = P gamma0 S, induced by
a permutation gamma0 of the basis that preserves im(R).  ``tate_pair``
certifies gamma's order once, on gamma0's cycles, and induces the norm once,
from the orbit sums of gamma0, with no product of induced operators.

Every Tate group of gamma is killed by m, so every invariant factor of
1 - gamma and of the norm above 1 divides m.  ``read_spots`` reads them.
For m = 2^a (every archimedean level, and q = 3, 5, 9, 17, ...) there is
no elimination over Z: the rational ranks come from the trace,
rank(norm) = tr(norm) / m and rank(1 - gamma) = n - that, and the factors
of valuation below a from ``znf.two_adic_counts``, modulo 2^a; the rest
are m.  At m = 2, 1 - gamma = 1 + gamma mod 2, so one count, the rank
mod 2 of the norm 1 + gamma, serves both, and 1 - gamma is never formed.
The via-N complex of ``skcx`` is the Tate complex of one involution and
reads that case.  Every other m (1, and q - 1 with an odd factor:
q = 4, 7, 11, 13, ...) takes two transform-free reductions over Z
(``znf.rank_torsion``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chainkit import HomologyTable, MapOperator
from .distmod import UModule, build_af, u_module
from .znf import AbGroupInvariants, _sparse, rank_torsion, two_adic_counts


class OrderViolation(ValueError):
    pass


def orbit_sums(perm: MapOperator, m: int):
    """The ``SparseMatrix`` 1 + gamma0 + ... + gamma0^(m-1) of the
    permutation ``perm``, read off its cycles: column i is (m / L) times
    the sum of the e_j over the cycle of i, L its length.

    The one walk over the cycles is the order certificate: a map that is
    not a permutation, or a cycle whose length does not divide m, raises
    OrderViolation.
    """
    y = perm.images
    if perm.shift or perm.scale != 1 or len(set(y)) != len(y):
        raise OrderViolation("the sign generator is not a permutation of the basis")
    cols = [None] * len(y)
    for start in range(len(y)):
        if cols[start] is not None:
            continue
        cycle, k = [start], y[start]
        while k != start:
            cycle.append(k)
            k = y[k]
        if m % len(cycle):
            raise OrderViolation(f"the sign generator has a cycle of length "
                                 f"{len(cycle)}, which does not divide {m}")
        # the columns of one cycle are equal, and no column is ever mutated
        col = dict.fromkeys(cycle, m // len(cycle))
        for k in cycle:
            cols[k] = col
    return _sparse(len(y), tuple(cols))


def read_spots(norm, difference, m: int) -> tuple[tuple, tuple]:
    """(rank, torsion) of the norm N and of the difference 1 - gamma, two
    ``SparseMatrix`` values, for gamma^m = 1 on Z^n; ``difference`` is not
    read at m = 2, and may be None there.

    Over Q, N is m on the 1-eigenspace of gamma and 0 on the others, where
    1 - gamma is invertible, so tr N must be divisible by m
    (OrderViolation).  At m = 2^a, rank N = tr N / m and
    rank(1 - gamma) = n - rank N.  Both Tate groups are killed by m, so
    every invariant factor of N and of 1 - gamma is 0 or 2^j with j <= a,
    and ``znf.two_adic_counts`` counts those with j < a modulo 2^a; the
    rest of each rank is m.  At a = 1, 1 - gamma = 1 + gamma = N mod 2, so
    one count serves both.  At every other m both pairs come from
    ``znf.rank_torsion``.
    """
    trace = sum(col.get(j, 0) for j, col in enumerate(norm.entries))
    if trace % m:
        raise OrderViolation(f"tr(norm) = {trace} is not divisible by {m}")
    if m == 1 or m & (m - 1):
        return rank_torsion(norm), rank_torsion(difference)
    a = m.bit_length() - 1
    counts_norm = two_adic_counts(norm, a)
    counts_difference = counts_norm if a == 1 else two_adic_counts(difference, a)
    pairs = []
    for rank, counts in ((trace // m, counts_norm), (norm.rows - trace // m, counts_difference)):
        torsion = tuple(1 << j for j, c in enumerate(counts) if j for _ in range(c))
        pairs.append((rank, torsion + (m,) * (rank - sum(counts))))
    return tuple(pairs)


def tate_pair(quotient, perm: MapOperator,
              m: int) -> tuple[AbGroupInvariants, AbGroupInvariants]:
    """Even and odd Tate homology invariants of the operator gamma that the
    permutation ``perm`` induces on ``quotient``, of order m, without
    representatives.

    (1 - gamma, norm) is a free two-periodic complex, so both parities have
    free rank n - rk(1 - gamma) - rk(norm); the even torsion is that of
    Z^n / im(norm) and the odd torsion that of Z^n / im(1 - gamma).  The
    (rank, torsion) pairs come from ``tate_spots``.

    ``perm``, gamma0, must already be certified to map im(R) into itself:
    gamma0 of A(f) by its commutation with every X_p, neg on the symbol
    module by the witness of ``skcx._via_n_quotient``.  Then gamma^k =
    P gamma0^k S for every k, by induction: the projection P kills exactly
    im(R) and P S = 1, so P (S P - 1) = 0 and S P - 1 maps into im(R), and

        gamma^(k+1) = P gamma0^k S P gamma0 S
                    = P gamma0^(k+1) S + P gamma0^k (S P - 1) gamma0 S,

    where the last term vanishes, since gamma0^k keeps im(R) and P kills
    it.  So gamma0^m = 1, which ``orbit_sums`` certifies on gamma0's
    cycles, gives gamma^m = P S = 1 with no product, and the norm is
    P (sum_k gamma0^k) S, the orbit-sum matrix induced once.
    """
    (rank_norm, tors_norm), (rank_diff, tors_diff) = tate_spots(quotient, perm, m)
    free = quotient.section.cols - rank_norm - rank_diff
    return AbGroupInvariants(free, tors_norm), AbGroupInvariants(free, tors_diff)


def tate_spots(quotient, perm: MapOperator, m: int) -> tuple[tuple, tuple]:
    """(rank, torsion) of the norm and of 1 - gamma for ``tate_pair``.

    The cycle walk of ``orbit_sums`` comes first and is the only order
    certificate.  The norm is then its orbit sums induced, and
    1 - gamma = P (1 - gamma0) S is induced only where ``read_spots``
    reads it, at every m but 2.  Each induction is two products, the
    operator against the section and the projection against that, so no
    two induced operators are ever multiplied.
    """
    norm = quotient.induce_preserving(orbit_sums(perm, m))
    difference = None if m == 2 else quotient.induce_preserving(
        MapOperator(perm.images, shift=1, scale=-1).matrix())
    return read_spots(norm, difference, m)


def sign_homology_U(bk, f, nu: dict | None = None, level: int = 1,
                    u: UModule | None = None) -> HomologyTable:
    """Both parities of the sign-homology of U(f^level)."""
    if u is None:
        u = u_module(build_af(bk, bk.power(f, level), nu))
    even, odd = tate_pair(u, u.parent.operators.maps["gamma0"], bk.sign_order)
    return HomologyTable({0: even, 1: odd}, periodic=True)


def expected_rank_theorem_value(bk, f) -> AbGroupInvariants:
    """(Z/m')^{2^{r-1}} with m' the number of roots of unity of the base field."""
    r = len(bk.factor(f))
    m = bk.sign_order
    if m <= 1:
        return AbGroupInvariants(0)
    return AbGroupInvariants(0, (m,) * 2 ** (r - 1))


@dataclass(frozen=True)
class RankTheoremReport:
    applicable: bool
    passed: bool
    expected: AbGroupInvariants | None
    even: AbGroupInvariants | None
    odd: AbGroupInvariants | None
    reason: str

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "NOT_APPLICABLE"
        return "PASS" if self.passed else "FAIL"


def rank_theorem_exception(bk, f) -> str:
    """Why the rank theorem says nothing at level f, or "" where it applies.

    Archimedean: defined for f > 1 with f not congruent to 2 mod 4 (Kubert's
    range, ``bk.outside_rank_theorem``); function field: any nonunit f.
    """
    if bk.norm(f) == 1:
        return "unit level"
    if bk.outside_rank_theorem(f):
        return "f = 2 mod 4 is outside the theorem"
    return ""


def verify_rank_theorem(bk, f, nu: dict | None = None) -> RankTheoremReport:
    """Compare computed sign-homology of U(f) against the closed form, where
    ``rank_theorem_exception`` finds none; over F_q[T], m' = q - 1 and the
    class group factor is trivial.
    """
    reason = rank_theorem_exception(bk, f)
    if reason:
        return RankTheoremReport(False, False, None, None, None, reason)
    table = sign_homology_U(bk, f, nu)
    even, odd = table[0], table[1]
    expected = expected_rank_theorem_value(bk, f)
    passed = even == expected and odd == expected
    return RankTheoremReport(True, passed, expected, even, odd, "")
