"""Farrell-Tate homology of almost free abelian groups, two ways.

An almost free group of rank r >= 1 with torsion subgroup of order m has
homology (Z/m)^{2^{r-1}} in every degree.  That closed form is checked
against the windowed total complex of the Koszul-Tate double complex of the
trivial module with r zero operators and vertical pair [m; 0].

The same total complex with operators nu_p - 1 realizes, at the level of the
two class-number-one backends, the homology side of the comparison theorem
for the universal distribution: the rank-one module of order-one classes
carries every fiber-sum operator and every group element as the identity, so
the Koszul operators collapse to the scalars nu_p - 1 and the vertical pair
to [m; 0].
"""

from __future__ import annotations

from dataclasses import dataclass

from .chainkit import HomologyTable, scalar_kt
from .znf import AbGroupInvariants


class RankZeroUnsupported(ValueError):
    pass


class HypothesisViolated(ValueError):
    pass


@dataclass(frozen=True)
class AlmostFreeSpec:
    """Product of a free abelian group of rank r and a cyclic group of order m."""

    rank: int
    torsion_order: int

    def __post_init__(self):
        if self.rank < 0 or self.torsion_order < 1:
            raise ValueError("rank must be >= 0 and torsion order >= 1")


def ftate_closed_form(spec: AlmostFreeSpec, degree: int | None = None) -> AbGroupInvariants:
    """(Z/m)^{2^{r-1}}, independent of the degree."""
    if spec.rank == 0:
        raise RankZeroUnsupported("closed form requires positive rank")
    if spec.torsion_order == 1:
        return AbGroupInvariants(0)
    return AbGroupInvariants(0, (spec.torsion_order,) * 2 ** (spec.rank - 1))


def ftate_via_kt(spec: AlmostFreeSpec, window=None) -> HomologyTable:
    """Interior homology of KT^tot(Z, {0}^r, [m; 0])."""
    if spec.rank == 0:
        raise RankZeroUnsupported("the KT route requires positive rank")
    return scalar_kt([0] * spec.rank, spec.torsion_order, 0, window)


def thm442_lhs(bk, f, nu: dict | None = None, window=None) -> HomologyTable:
    """Homology side of the comparison theorem for a squarefree level.

    Computes KT^tot(Z, {nu_p - 1}_{p | f}, [m; 0]) on a window; with nu = 1
    this is the Farrell-Tate complex of the free group on the primes of f
    times the roots of unity.  The backend says which nu values the theorem
    admits (``comparison_nu_ok``): in the archimedean case every nu_p must
    be a unit.  A level with no prime divisor is refused: with no Koszul
    operator the complex is the bare Tate column, one parity off the
    sign-homology it is compared with.
    """
    nu = dict(nu or {})
    factors = bk.factor(f)
    if not factors:
        raise RankZeroUnsupported(
            f"thm442 needs a level with a prime divisor; {bk.format_ideal(f)} has none")
    if any(e > 1 for _, e in factors):
        raise HypothesisViolated(f"{bk.format_ideal(f)} is not squarefree")
    if not bk.comparison_nu_ok(nu.get(p, 1) for p, _ in factors):
        raise HypothesisViolated("archimedean comparison requires unit nu values")
    scalars = [nu.get(p, 1) - 1 for p, _ in factors]
    return scalar_kt(scalars, bk.sign_order, 0, window)
