"""The archimedean u-function and the comparison with the classical lattice.

u is the unique period-1 function whose character transform at every level f
is the product of (1 - chi*(p)) over the primes p | f, where chi* is the
primitive character behind chi (chi*(p) = 0 when p divides the conductor):

    sum_{x in (Z/f)^x} u(x/f) chi(x) = prod_{p | f} (1 - chi*(p)).

Closed form.  Expanding the product over the subsets S of the primes of f
gives sum_S (-1)^|S| chi*(m_S) with m_S = prod_{p in S} p.  The value
chi*(m_S) is nonzero exactly when chi factors through (Z/f_S)^x, f_S being f
with every prime of S removed, and it is then that character's value at m_S.
Orthogonality on (Z/f_S)^x inverts the transform:

    phi(f) u(x/f) = sum_S (-1)^|S| phi(f_S) [x = m_S mod f_S],

an integer for every unit x, at a cost of 2^r terms (r primes).  Each level
is cached as these integers with phi(f); ``Fraction`` values are made only
for reports.

Certificate.  Before a level's values are used they are substituted back
into the defining identity for every one of the phi(f) characters, by the
level's own transform or through the distribution relations (below).  (Z/f)^x
is the product of CRT-local cyclic factors, with one discrete-log table per
prime power (a primitive root, or -1 and 5 at 2^k), so the transform
sum_x phi(f) u(x/f) chi(x) over all chi is a multidimensional transform,
taken one cyclic factor at a time in Z[x]/(x^e - 1), e the exponent of the
group and x standing for zeta_e.  Each element of that ring is one packed
integer (Kronecker substitution x -> 2^B, modulo 2^(eB) - 1), so an addition
or a multiplication by a power of x is one big-integer step.  Each entry is
compared with phi(f) prod_{p not | cond chi} (1 - chi*(p)): their difference
must vanish modulo the cyclotomic polynomial Phi_e, which is tested exactly
as (x^e - 1) dividing the difference times (x^e - 1)/Phi_e, with the slot
width B chosen per level from the size of its values so that no packed
coefficient can wrap (``_certify``).  Any difference raises
``RationalityFailure``.  Whether p divides a character's conductor is read
off its exponents on the factors of the power of p.

Certificate through the relations.  Take d | f with prime support S and
d_S the part of f on S, so d | d_S.  The level-f relation with g = d_S/d
and b = x f/d_S says u(x/d) = sum_{i<g} u((x + i d)/d_S), each x + i d a
unit mod d_S, so T_d(chi) = T_{d_S}(chi o pi) = prod_{p | d} (1 - chi*(p))
for every chi mod d, T the character transform and pi the reduction mod d:
the identity at d follows from the identity at d_S and the relations.  A
level-f table therefore transforms only the 2^r parts d_S of f, checks the
relations once, and counts every other divisor level as certified when
they hold; if one fails, every level is transformed on its own.  A level
certified either way is recorded for the process and never certified again
(``_level_table``).

Distribution relations at level f are integer comparisons in one table
U[n] = L u(n/f), 0 <= n < f, with L the lcm of phi(d) over d | f.  They
include the relations at every divisor of f, so once they hold at f they
are not checked again at a divisor.

The classical lattice at level f is the Z[G_f]-span in Q[G_f] of the vectors
(u(t_gamma / g))_gamma for divisors g | f; it is free of rank |G_f|, and the
map sending a class to its u-orbit vector identifies the universal
distribution with it.  That isomorphism is certified by structure, with no
basis of the lattice: the classes of Xi(f) give exactly the lattice's
generators, every distribution relation is killed by the map, U(f)'s
section is a right inverse of its projection, and the lattice has rank
|G_f| over Q.  That rank follows from the conductor lemma (Washington,
Introduction to Cyclotomic Fields, Ch. 3) with no count: for chi mod f of
conductor c, the orbit vector v_c of the class 1/c depends on delta mod c
only, so its transform at chi is phi(f)/phi(c) times the identity at level
c, prod_{p | c} (1 - 0) = 1, which is nonzero; every character is reached.
Its premises are checked: 1/c is a generator, level c is certified, and
each value the map reads is the certified value of its level
(``uprime_compare``).  The map is G_f-equivariant by construction: the
coordinate at delta of the image of xi is lam(delta^-1 xi), with
lam(xi) = u(n0(xi)/f) one integer per class.  So the relations and the
equivariance are checked on lam and on permutations, in O(nnz): the
relations are the nu_p - X_p, whose span every class map preserves, lam
kills each of them, and each generator of G_f acts on A(f) by the
permutation of the offsets n0.  U(f)'s operator is induced from that
permutation by definition, so the comparison forms no operator of U(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import lshift

from .arith import ARCHIMEDEAN, gf_group
from .distmod import (
    StructureCheckFailed,
    UModule,
    build_af,
    g_op_name,
    position_matrix,
    u_module,
)
from .znf import SparseMatrix


class RationalityFailure(ArithmeticError):
    pass


class RelationNotKilled(RuntimeError):
    pass


class GeneratorMismatch(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Cyclotomic polynomials


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    # x^n - 1 divided by the product of the lower cyclotomic polynomials
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _int_poly_div(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        q, r = divmod(num[-1], den[-1])
        if r:
            raise ArithmeticError("non-exact integer polynomial division")
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
        while num and num[-1] == 0:
            num.pop()
    if any(num):
        raise ArithmeticError("non-exact integer polynomial division")
    return out


@lru_cache(maxsize=None)
def _cofactor(e: int) -> tuple[int, ...]:
    """Psi_e = (x^e - 1)/Phi_e, low degree first."""
    return tuple(_int_poly_div([-1] + [0] * (e - 1) + [1], cyclotomic_polynomial(e)))


# ---------------------------------------------------------------------------
# The unit group (Z/fZ)^x, one prime power at a time


@dataclass(frozen=True)
class _PrimePower:
    """(Z/p^k)^x as a product of cyclic factors: a primitive root for odd p,
    -1 and 5 at 2^k with k >= 3, 3 at 4 and nothing at 2."""

    p: int
    k: int
    modulus: int
    orders: tuple
    logs: dict  # unit residue mod p^k -> exponents over the generators


@lru_cache(maxsize=None)
def _prime_power(p: int, k: int) -> _PrimePower:
    pk = p**k
    if p != 2:
        order = pk - pk // p
        for g in range(2, pk):
            if g % p == 0:
                continue
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = x * g % pk
            if len(powers) == order:
                return _PrimePower(p, k, pk, (order,), {x: (i,) for i, x in enumerate(powers)})
    if k == 1:
        return _PrimePower(2, 1, 2, (), {1: ()})
    if k == 2:
        return _PrimePower(2, 2, 4, (2,), {1: (0,), 3: (1,)})
    logs = {}
    x = 1
    for i in range(pk // 4):
        logs[x] = (0, i)
        logs[pk - x] = (1, i)
        x = x * 5 % pk
    return _PrimePower(2, k, pk, (2, pk // 4), logs)


class _UnitGroup:
    """(Z/f)^x as the product of the cyclic factors of its prime powers.

    Characters are exponent tuples c over the factors; chi_c sends the
    generator of factor i to zeta_e^(steps[i] c_i).  Flat arrays over the
    group or its characters are indexed by sum_i c_i strides[i], the last
    factor fastest, which is the order of ``itertools.product``.
    """

    def __init__(self, f: int):
        self.local = tuple(_prime_power(p, k) for p, k in ARCHIMEDEAN.factor(f))
        self.orders = tuple(s for loc in self.local for s in loc.orders)
        self.exponent = lcm(1, *self.orders)
        self.steps = tuple(self.exponent // s for s in self.orders)
        strides = [1] * len(self.orders)
        for i in range(len(self.orders) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.orders[i + 1]
        self.strides = tuple(strides)

    def log(self, x: int):
        """Exponents of x over the factors, or None when x is not a unit."""
        out = ()
        for loc in self.local:
            k = loc.logs.get(x % loc.modulus)
            if k is None:
                return None
            out += k
        return out

    def prime_data(self):
        """Per prime p | f: the factors of its prime power, and the exponents
        of the unit that is p away from p and 1 at p (so chi*(p) is
        zeta_e^(sum steps[i] c_i logs[i]) when chi is trivial at p)."""
        out = []
        at = 0
        for loc in self.local:
            n = len(loc.orders)
            logs = ()
            for other in self.local:
                if other is loc:
                    logs += (0,) * n
                else:
                    logs += other.logs[loc.p % other.modulus]
            out.append((range(at, at + n), logs))
            at += n
        return out


@lru_cache(maxsize=None)
def _unit_group(f: int) -> _UnitGroup:
    return _UnitGroup(f)


# ---------------------------------------------------------------------------
# The u function


@lru_cache(maxsize=None)
def _closed_form(f: int):
    """(phi(f), {x: phi(f) u(x/f)}) over the units x mod f, not certified."""
    units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
    phi = len(units)
    terms = [(phi, f, 1)]  # (+-phi(f_S), f_S, m_S) per subset S of the primes
    for p, k in ARCHIMEDEAN.factor(f):
        pk = p**k
        terms += [(-c // (pk - pk // p), m // pk, r * p) for c, m, r in terms]
    scaled = {x: sum(c for c, m, r in terms if (x - r) % m == 0) for x in units}
    return phi, scaled


# The levels certified in this process, by their own transform or through a
# level table's relations, with their closed forms
_CERTIFIED: dict = {}
# The levels whose distribution relations held; each stands for its divisors
_RELATIONS_HELD: set = set()


def _level(f: int):
    """The closed form at f, certified by its own transform unless it is
    certified already."""
    level = _CERTIFIED.get(f)
    if level is None:
        level = _closed_form(f)
        _certify(f, level[1])
        _CERTIFIED[f] = level
    return level


def _slot_bits(scaled: dict, e: int, r: int) -> int:
    """The slot width B of ``_certify`` at a level with these scaled values,
    exponent e and r primes: the least B with 2^(B-1) > H ||Psi_e||_1,
    H = sum |v| + phi(f) 2^r."""
    bound = (sum(map(abs, scaled.values())) + (len(scaled) << r)) * sum(
        map(abs, _cofactor(e)))
    return bound.bit_length() + 1


def _transform(group: _UnitGroup, values: dict, width: int):
    """The character transform sum_x values[x] chi(x) of integer values on
    the units x of (Z/f)^x, at every character of ``group`` in product
    order, as packed elements of Z[x]/(x^e - 1) with x standing for zeta_e.

    An element sum_t a_t x^t is held as the integer sum_t a_t 2^(t width)
    modulo M = 2^(e width) - 1: x -> 2^width is a ring homomorphism onto Z/M
    since 2^(e width) = 1 mod M, and multiplying by x^t is a shift by
    t width bits followed by a reduction modulo M.  The transform is taken
    one cyclic factor at a time.  Returns the table, the reduction modulo M
    and Psi_e = (x^e - 1)/Phi_e packed alike; a caller picks ``width`` so
    that no coefficient it tests can wrap.
    """
    e, orders, steps, strides = group.exponent, group.orders, group.steps, group.strides
    phi = prod(orders)
    bits = e * width
    mask = (1 << bits) - 1  # M

    def reduce(x):
        # x mod M: 2^bits = 1 mod M, so two folds leave a few bits over M
        x = (x & mask) + (x >> bits)
        return ((x & mask) + (x >> bits)) % mask

    table = [0] * phi
    for x, v in values.items():
        table[sum(a * b for a, b in zip(group.log(x), strides))] = v
    # The largest factor goes first, while its terms are still scalars.
    for axis in sorted(range(len(orders)), key=lambda i: -orders[i]):
        s, stride, step = orders[axis], strides[axis], steps[axis]
        # row c: the shifts that multiply term k by x^(step c k)
        shifts = [[step * c * k % e * width for k in range(s)] for c in range(s)]
        block = s * stride
        out = [0] * phi
        for base in range(0, phi, block):
            for at in range(base, base + stride):
                column = table[at : at + block : stride]
                for c, row in enumerate(shifts):
                    out[at + c * stride] = reduce(sum(map(lshift, column, row)))
        table = out
    psi = reduce(sum(a << (t * width) for t, a in enumerate(_cofactor(e))))
    return table, reduce, psi


def _certify(f: int, scaled: dict) -> int:
    """Check the defining identity for every character of (Z/f)^x against
    the scaled values {x: phi(f) u(x/f)}; return the number of characters.

    The left sides are the packed ``_transform`` of the values.  The
    character identity at chi says that Phi_e divides d = lhs - rhs, which
    holds exactly when x^e - 1 = Phi_e Psi_e divides d Psi_e, that is when
    c = d Psi_e mod (x^e - 1) is zero; the check is that the image of c in
    Z/M is zero.

    That is exact.  Each lhs is sum_x v_x x^(t_x), of l1 norm at most
    sum |v|, and each rhs is phi(f) times at most r factors 1 - x^t, of l1
    norm at most phi(f) 2^r; so every coefficient of d is at most H in
    absolute value, and every coefficient of c at most H ||Psi_e||_1,
    below 2^(B-1) by the choice of the slot width B (``_slot_bits``).  Then
    |c(2^B)| <= (2^(B-1) - 1)(2^(eB) - 1)/(2^B - 1) < M, so c(2^B) = 0 mod M
    forces c(2^B) = 0, and base-2^B digits below 2^(B-1) in absolute value
    represent 0 only when every digit is 0: c = 0.
    """
    group = _unit_group(f)
    e, steps = group.exponent, group.steps
    phi = len(scaled)
    primes = group.prime_data()
    width = _slot_bits(scaled, e, len(primes))
    table, reduce, psi = _transform(group, scaled, width)
    checked = 0
    for lhs, exps in zip(table, product(*map(range, group.orders))):
        rhs = phi
        for axes_p, logs in primes:
            if any(exps[i] for i in axes_p):
                continue  # p divides the conductor: the factor is 1 - 0
            t = sum(s * c * k for s, c, k in zip(steps, exps, logs)) % e
            rhs = reduce(rhs - (rhs << t * width))
        if reduce((lhs - rhs) * psi):
            raise RationalityFailure(f"character identity fails at level {f}")
        checked += 1
    return checked


def u_values(f: int) -> dict:
    """Exact values u(x/f) for x prime to f, from the certified closed form."""
    phi, scaled = _level(f)
    return {x: Fraction(v, phi) for x, v in scaled.items()}


@lru_cache(maxsize=None)
def _level_table(f: int):
    """(L, U, held) with U[n] = L u(n/f) for 0 <= n < f, L = lcm of phi(d)
    over d | f, and held whether every distribution relation at level f
    holds (``_relations_hold``).

    Only the parts d_S of f on a set S of its primes, the divisors d with
    gcd(d, f/d) = 1, are certified by their own transform.  Once the
    relations hold, every other divisor d is certified by the identity at
    the part of f on the primes of d (the module docstring); if one fails,
    every level is transformed.  The relations are not checked again when
    they held at a multiple of f, whose relations include them.
    """
    divisors = ARCHIMEDEAN.divisors(f)
    levels = {d: _level(d) if gcd(d, f // d) == 1 else _closed_form(d) for d in divisors}
    scale = lcm(*(phi for phi, _ in levels.values()))
    table = []
    for n in range(f):
        g = gcd(n, f)
        phi, scaled = levels[f // g]
        table.append(scaled[n // g] * (scale // phi))
    held = any(m % f == 0 for m in _RELATIONS_HELD) or _relations_hold(table, f)
    for d in divisors:
        if d not in _CERTIFIED:
            if not held:
                _certify(d, levels[d][1])
            _CERTIFIED[d] = levels[d]
    if held:
        _RELATIONS_HELD.add(f)
    return scale, tuple(table), held


def _relations_hold(table, f: int) -> bool:
    # u(gb/f) = sum_{i<g} u((b + i f/g)/f) for g | f, g > 1 and 0 <= b < f/g
    for g in ARCHIMEDEAN.divisors(f)[1:]:
        step = f // g
        for b in range(step):
            if table[g * b] != sum(table[b::step]):
                return False
    return True


def level_relations_hold(f: int) -> bool:
    """Every relation u(a) = sum_{i<g} u((a+i)/g) with g | f, g > 1 and a in
    (g/f)Z ∩ [0, 1), compared as integers in the level-f table."""
    return _level_table(f)[2]


def _orbit_table(f: int):
    """(D, W): D the lcm of the reduced denominators of u(n/f), 0 <= n < f,
    and W[n] = D u(n/f), all integers."""
    scale, table, _ = _level_table(f)
    common = gcd(scale, *table)
    return scale // common, [v // common for v in table]


# ---------------------------------------------------------------------------
# The classical lattice and the comparison map


@dataclass(frozen=True)
class UPrimeReport:
    """The comparison at ``level``.  ``uprime_compare`` raises unless the
    u-orbit map is a basis of U'(f), of rank phi(f) = ``rank`` with index
    invariants all 1, so whether the map is G_f-equivariant is the verdict."""

    level: int
    rank: int
    equivariant: bool


def _generator_offsets(f: int, units) -> list:
    """n0 = sigma f/g mod f for the U'(f) generators (g, sigma), g | f and
    sigma a unit mod f, divisors outermost: each generator is the orbit
    vector of the class n0/f, u(delta^-1 n0/f) at the coordinate delta."""
    return [sigma * (f // g) % f for g in ARCHIMEDEAN.divisors(f) for sigma in units]


def uprime_compare(f: int, u: UModule | None = None) -> UPrimeReport:
    """Map the distribution module onto the classical lattice and certify
    that the map is a G_f-equivariant isomorphism, by structure.

    The coordinate at delta of the image of a class with offset n0 is
    u(delta^-1 n0 / f), so row delta of the image is lam rho(delta^-1), with
    lam(xi) = u(n0(xi)/f) the row at delta = 1 and rho(t) the class map
    n0 -> t n0 mod f on A(f).  Each check reads scalars or a permutation:

    * generator identity: the offsets n0 = num f/g of the classes num/g of
      Xi(f) are those of the U'(f) generators (``_generator_offsets``), so
      the map's columns, one per class, are the generators of U'(f) scaled
      by its denominator; otherwise GeneratorMismatch;
    * relations: the columns of R are those of the nu_p - X_p, certified
      when ``u`` was built (``UModule``), so no UModule reaches this point
      otherwise.  Every class map of A(f) commutes with the X_p
      (``ActionModule``), so im R is G_f-stable once those maps are the
      rho(t), as checked below;
    * relations killed: lam kills each column of R, or RelationNotKilled.
      Then so does every row lam rho(delta^-1), im R being G_f-stable;
    * section: P S = 1 for U(f)'s projection P and section S, or
      StructureCheckFailed.  P kills exactly im R, so A(f) = im S + im R;
    * lattice rank, by the conductor lemma: take chi mod f of conductor c.
      The orbit vector of the class 1/c, v_c(delta) = u(delta^-1/c),
      depends on delta mod c only, and each unit mod c has phi(f)/phi(c)
      lifts mod f, so T(v_c)(chi) = sum_delta v_c(delta) chi(delta) is
      phi(f)/phi(c) times the level-c transform of u at the primitive
      character behind chi^-1.  Every p | c divides its conductor, so the
      identity at c makes that transform prod_{p | c} (1 - 0) = 1, and
      T(v_c)(chi) = phi(f)/phi(c) is nonzero.  The span of the translates
      of the generators holds one line per character, so it has rank
      phi(f) over Q.  The premises are checked: 1/c is a generator (the
      generator identity above); level c is certified, by its transform
      or through the relations, before ``_orbit_table`` returns; and each
      value the map reads is its level's certified value,
      W[n] phi(c) = D phi(c) u((n/g)/c) for g = gcd(n, f) and c = f/g,
      W and D as ``_orbit_table`` gives them, or RationalityFailure.

    R is killed and A(f) = im S + im R, so ``mapped`` = image S, the map on
    U(f)'s free basis, spans U'(f); its phi(f) columns span a lattice of
    rank phi(f), so they are a basis of it.  The map is then an isomorphism
    and the index invariants are all 1.

    Equivariance, per generator t of G_f: A(f)'s class map is rho(t), or
    the report is not equivariant.  U(f)'s operator op for t is P rho(t) S
    by definition (``induce_preserving``), so it is not formed here.  Then
    mapped op = image S P rho(t) S = image rho(t) S = perm mapped, perm the
    coordinate permutation by t: S P - 1 maps into ker P = im R, which the
    image kills, and image rho(t) = perm image by the orbit formula above.
    """
    if f < 2:
        raise ValueError("comparison needs f > 1")
    if u is None:
        u = u_module(build_af(ARCHIMEDEAN, f))
    af = u.parent
    units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
    phi_f = len(units)
    denom, orbit = _orbit_table(f)

    offsets = [xi.num * (f // xi.order) % f for xi in af.basis]
    if sorted(offsets) != sorted(set(_generator_offsets(f, units))):
        raise GeneratorMismatch("the classes of Xi(f) are not the U'(f) generators")
    lam = [orbit[n0] for n0 in offsets]
    if any(sum(c * lam[k] for k, c in col.items()) for col in u.relations.entries):
        raise RelationNotKilled("distribution relations survive the u-orbit map")
    if u.section.cols != phi_f or u.projection * u.section != SparseMatrix.identity(phi_f):
        raise StructureCheckFailed("the section of U(f) is not a right inverse of its projection")
    for n, w in enumerate(orbit):
        g = gcd(n, f)
        level = _CERTIFIED.get(f // g)
        if level is None or w * level[0] != denom * level[1][n // g]:
            raise RationalityFailure(f"u({n}/{f}) is not the certified value at level {f // g}")

    where = {n0: i for i, n0 in enumerate(offsets)}
    equivariant = True
    for sigma in af.group.generators():
        t = sigma.residue
        name = g_op_name(af.backend, t)
        if af.operators.operator(name) != position_matrix(
                af.rank, [where[t * n0 % f] for n0 in offsets]):
            equivariant = False
            break
    return UPrimeReport(f, phi_f, equivariant)
