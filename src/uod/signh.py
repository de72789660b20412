"""Tate homology of the cyclic sign group and the rank theorem verifiers.

Conventions: for a generator gamma of order m acting on a free Z-module,

    even := ker(1 - gamma) / im(norm),   odd := ker(norm) / im(1 - gamma),

with norm = 1 + gamma + ... + gamma^{m-1}.  Both theories are two-periodic;
tables are reported at degrees 0 (even) and 1 (odd).  Sign-cohomology is the
same list read with degrees i and 1-i paired, so only homology is computed.
Only invariants are computed, never cycle representatives, and the order
of gamma is certified on the chain of powers that builds the norm
(``norm_matrix``), with no second chain.

Every Tate group of gamma is killed by m, so every invariant factor of
1 - gamma and of the norm above 1 divides m.  For m = 2^a (every
archimedean level, and q = 3, 5, 9, 17, ...) ``two_power_rank_torsion``
reads them with no elimination over Z: the rational ranks from the trace,
rank(norm) = tr(norm) / m and rank(1 - gamma) = n - that, and the factors
of valuation below a from ``znf.two_adic_counts``, modulo 2^a; the rest
are m.  At m = 2 (``involution_rank_torsion``) 1 - gamma = 1 + gamma mod
2, so one count, the rank mod 2 of 1 + gamma, serves both.  The via-N
complex of ``skcx`` is the Tate complex of one involution and reads that
case.  Every other m (1, and q - 1 with an odd factor: q = 4, 7, ...)
takes two transform-free reductions over Z (``znf.rank_torsion``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chainkit import HomologyTable
from .distmod import UModule, build_af, u_module
from .znf import AbGroupInvariants, as_sparse, rank_torsion, two_adic_counts


class OrderViolation(ValueError):
    pass


def norm_matrix(gamma, m: int):
    """1 + gamma + ... + gamma^(m-1), of gamma's own matrix type.

    The same chain of powers ends at gamma^m, which must be the identity,
    or OrderViolation: m - 1 products in all, on every input.
    """
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


def two_power_rank_torsion(gamma, m: int) -> tuple[tuple, tuple]:
    """(rank, torsion) of the norm and of 1 - gamma, for gamma^m = 1 with
    m = 2^a, a >= 1.

    ``norm_matrix(gamma, m)`` certifies gamma^m = 1 and returns the norm N.
    Over Q, N is m on the 1-eigenspace of gamma and 0 on the others, where
    1 - gamma is invertible, so rank N = tr N / m, which must be an integer
    (OrderViolation), and rank(1 - gamma) = n - rank N.  Both Tate groups
    are killed by m, so every invariant factor of N and of 1 - gamma is 0
    or 2^j with j <= a, and ``znf.two_adic_counts`` counts those with
    j < a modulo 2^a; the rest of each rank is m.  At a = 1,
    1 - gamma = 1 + gamma = N mod 2, so one count serves both.
    """
    a = m.bit_length() - 1
    norm = as_sparse(norm_matrix(gamma, m))
    trace = sum(col.get(j, 0) for j, col in enumerate(norm.entries))
    if trace % m:
        raise OrderViolation(f"tr(norm) = {trace} is not divisible by {m}")
    counts_norm = two_adic_counts(norm, a)
    counts_gamma = counts_norm if a == 1 else two_adic_counts(
        as_sparse(type(gamma).identity(gamma.rows) - gamma), a)
    pairs = []
    for rank, counts in ((trace // m, counts_norm), (norm.rows - trace // m, counts_gamma)):
        torsion = tuple(1 << j for j, c in enumerate(counts) if j for _ in range(c))
        pairs.append((rank, torsion + (m,) * (rank - sum(counts))))
    return tuple(pairs)


def involution_rank_torsion(gamma) -> tuple[tuple, tuple]:
    """(rank, torsion) of 1 + gamma and of 1 - gamma, for gamma^2 = 1: the
    a = 1 case of ``two_power_rank_torsion``, where the norm is 1 + gamma,
    rank(1 + gamma) = (n + tr gamma) / 2, and one rank mod 2, r2, counts
    the 1s of both, so each torsion is (2,) * (rank - r2).
    """
    return two_power_rank_torsion(gamma, 2)


def tate_pair(gamma, m: int) -> tuple[AbGroupInvariants, AbGroupInvariants]:
    """Even and odd Tate homology invariants, without representatives.

    (1 - gamma, norm) is a free two-periodic complex, so both parities have
    free rank n - rk(1 - gamma) - rk(norm); the even torsion is that of
    Z^n / im(norm) and the odd torsion that of Z^n / im(1 - gamma).  At
    m = 2^a >= 2 both pairs come from ``two_power_rank_torsion``, the trace
    and counts modulo 2^a; at any other m, from two invariants-only
    reductions over Z.  gamma is an ``IntMatrix`` or a ``SparseMatrix`` (an
    operator induced on U(f) by ``UModule.operator``), and all the algebra
    stays in its type.  ``norm_matrix`` certifies gamma^m = 1 on the norm's
    own powers on both routes, before any rank is read.
    """
    if m > 1 and m & (m - 1) == 0:
        (rank_norm, tors_norm), (rank_gamma, tors_gamma) = two_power_rank_torsion(gamma, m)
    else:
        norm = norm_matrix(gamma, m)
        rank_gamma, tors_gamma = rank_torsion(type(gamma).identity(gamma.rows) - gamma)
        rank_norm, tors_norm = rank_torsion(norm)
    free = gamma.rows - rank_gamma - rank_norm
    return AbGroupInvariants(free, tors_norm), AbGroupInvariants(free, tors_gamma)


def sign_homology_U(bk, f, nu: dict | None = None, level: int = 1,
                    u: UModule | None = None) -> HomologyTable:
    """Both parities of the sign-homology of U(f^level)."""
    if u is None:
        u = u_module(build_af(bk, bk.power(f, level), nu))
    even, odd = tate_pair(u.operator("gamma0"), bk.sign_order)
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
