"""Tate homology of the cyclic sign group and the rank theorem verifiers.

Conventions: for a generator gamma of order m acting on a free Z-module,

    even := ker(1 - gamma) / im(norm),   odd := ker(norm) / im(1 - gamma),

with norm = 1 + gamma + ... + gamma^{m-1}.  Both theories are two-periodic;
tables are reported at degrees 0 (even) and 1 (odd).  Sign-cohomology is the
same list read with degrees i and 1-i paired, so only homology is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chainkit import HomologyTable
from .arith import g_action
from .distmod import UModule, build_af, class_matrix, u_inclusion, u_module
from .znf import (
    AbGroupInvariants,
    IntMatrix,
    Subquotient,
    kernel_basis,
    lattice_contains,
    preimage_lattice,
    rank_torsion,
    solve,
    subquotient,
)


class OrderViolation(ValueError):
    pass


def norm_matrix(gamma, m: int):
    """1 + gamma + ... + gamma^(m-1), of gamma's own matrix type."""
    out = power = type(gamma).identity(gamma.rows)
    for _ in range(m - 1):
        power = power * gamma
        out = out + power
    return out


def _check_order(gamma, m: int):
    if m < 1:
        raise OrderViolation("order must be >= 1")
    ident = power = type(gamma).identity(gamma.rows)
    for _ in range(m):
        power = power * gamma
    if power != ident:
        raise OrderViolation(f"gamma^{m} is not the identity")


def tate_cycles(gamma: IntMatrix, m: int) -> tuple[Subquotient, Subquotient]:
    """Presented even and odd Tate homology with explicit cycle bases."""
    _check_order(gamma, m)
    ident = IntMatrix.identity(gamma.rows)
    one_minus = ident - gamma
    norm = norm_matrix(gamma, m)
    even = subquotient(kernel_basis(one_minus), norm)
    odd = subquotient(kernel_basis(norm), one_minus)
    return even, odd


def tate_pair(gamma, m: int) -> tuple[AbGroupInvariants, AbGroupInvariants]:
    """Even and odd Tate homology invariants, without representatives.

    (1 - gamma, norm) is a free two-periodic complex, so both parities have
    free rank n - rk(1 - gamma) - rk(norm); the even torsion is that of
    Z^n / im(norm) and the odd torsion that of Z^n / im(1 - gamma).  Two
    invariants-only reductions; ``tate_cycles`` gives cycle bases.  gamma
    is an ``IntMatrix`` or a ``SparseMatrix`` (the induced operators of
    ``u_module``), and all the algebra stays in its type.
    """
    _check_order(gamma, m)
    rank_gamma, tors_gamma = rank_torsion(type(gamma).identity(gamma.rows) - gamma)
    rank_norm, tors_norm = rank_torsion(norm_matrix(gamma, m))
    free = gamma.rows - rank_gamma - rank_norm
    return AbGroupInvariants(free, tors_norm), AbGroupInvariants(free, tors_gamma)


def sign_homology_U(bk, f, nu: dict | None = None, level: int = 1,
                    u: UModule | None = None) -> HomologyTable:
    """Both parities of the sign-homology of U(f^level)."""
    if u is None:
        u = u_module(build_af(bk, bk.power(f, level), nu))
    even, odd = tate_pair(u.operators["gamma0"], bk.sign_order)
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


def verify_rank_theorem(bk, f, nu: dict | None = None) -> RankTheoremReport:
    """Compare computed sign-homology of U(f) against the closed form.

    Archimedean: defined for f > 1 with f not congruent to 2 mod 4 (Kubert's
    range, ``bk.outside_rank_theorem``); function field: any nonunit f, with
    m' = q - 1 and the class group factor trivial for F_q[T].
    """
    if bk.norm(f) == 1:
        return RankTheoremReport(False, False, None, None, None, "unit level")
    if bk.outside_rank_theorem(f):
        return RankTheoremReport(
            False, False, None, None, None, "f = 2 mod 4 is outside the theorem"
        )
    table = sign_homology_U(bk, f, nu)
    even, odd = table[0], table[1]
    expected = expected_rank_theorem_value(bk, f)
    passed = even == expected and odd == expected
    return RankTheoremReport(True, passed, expected, even, odd, "")


def induced_kernel(map_on_modules: IntMatrix, source: Subquotient,
                   target: Subquotient) -> AbGroupInvariants:
    """Kernel invariants of the induced map on presented homology groups."""
    mapped = map_on_modules * source.basis
    coords = solve(target.basis, mapped)
    pre = preimage_lattice(coords, target.rel)
    return subquotient(pre, source.rel).invariants


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
    gamma_f, gamma_g = u_f.operators["gamma0"].dense(), u_g.operators["gamma0"].dense()
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
        op = u_g.induce(perm).dense()
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


def acts_as_identity(op: IntMatrix, homology: Subquotient) -> bool:
    """Whether ``op`` induces the identity on the presented ``homology``."""
    coords = solve(homology.basis, op * homology.basis)
    delta = coords - IntMatrix.identity(coords.rows)
    if delta.is_zero():
        return True
    return lattice_contains(homology.rel, delta)
