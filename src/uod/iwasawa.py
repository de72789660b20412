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
for reports and ``u_of``.

Certificate.  Before a level's values are used they are substituted back
into the defining identity for every one of the phi(f) characters.  (Z/f)^x
is the product of CRT-local cyclic factors, with one discrete-log table per
prime power (a primitive root, or -1 and 5 at 2^k), so the transform
sum_x phi(f) u(x/f) chi(x) over all chi is a multidimensional transform,
taken one cyclic factor at a time in Z[zeta]/(zeta^e - 1), e the exponent
of the group.  Each entry is compared with phi(f) prod_{p not | cond chi}
(1 - chi*(p)) modulo the cyclotomic polynomial Phi_e, and any difference
raises ``RationalityFailure``.  A character's conductor is the product of
its local conductors, read off its exponents on each prime-power factor.

Distribution relations at level f are integer comparisons in one table
U[n] = L u(n/f), 0 <= n < f, with L the lcm of phi(d) over d | f.

The classical lattice at level f is the Z[G_f]-span in Q[G_f] of the vectors
(u(t_gamma / g))_gamma for divisors g | f; it is free of rank |G_f|, and the
map sending a class to its u-orbit vector identifies the universal
distribution with it, certified here by an index-one determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .arith import ARCHIMEDEAN, g_action, gf_group
from .distmod import UModule, build_af, class_matrix, u_module
from .znf import IntMatrix, image_basis, snf_invariants, solve


class RationalityFailure(ArithmeticError):
    pass


class RankMismatch(RuntimeError):
    pass


class RelationNotKilled(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Cyclotomic reduction


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


def reduce_zeta_vector(vec, order: int):
    """Reduce an integer vector of zeta_order powers modulo Phi_order."""
    phi = list(cyclotomic_polynomial(order))
    num = list(vec)
    deg = len(phi) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            shift = i - deg
            for j, p in enumerate(phi):
                num[shift + j] -= c * p
    return num[:deg] + [0] * max(deg - len(num), 0)


def _rotate(vec, t):
    """vec times zeta^t in Z[zeta]/(zeta^e - 1), e = len(vec), 0 <= t < e."""
    return vec[-t:] + vec[:-t] if t else vec


# ---------------------------------------------------------------------------
# The unit group (Z/fZ)^x, one prime power at a time, and its characters


@dataclass(frozen=True)
class _PrimePower:
    """(Z/p^k)^x as a product of cyclic factors: a primitive root for odd p,
    -1 and 5 at 2^k with k >= 3, 3 at 4 and nothing at 2."""

    p: int
    k: int
    modulus: int
    orders: tuple
    logs: dict  # unit residue mod p^k -> exponents over the generators

    def conductor(self, exps) -> int:
        """Least p^j such that the local character with these exponents is
        trivial on the units = 1 mod p^j.

        For odd p those units are the powers of the primitive root by
        multiples of (p - 1) p^(j-1); at 2^k, k >= 3, and j >= 2 they are the
        powers of 5 by multiples of 2^(j-2).  So a nonzero exponent c on the
        last generator gives p^(k - v_p(c)), which is also 4 for the one
        nontrivial character mod 4.  Otherwise the character is trivial, or
        it is the sign character, of conductor 4.
        """
        c = exps[-1] if exps else 0
        if c:
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            return self.p ** (self.k - v)
        return 4 if any(exps) else 1


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

    def conductor(self, exps) -> int:
        out = 1
        at = 0
        for loc in self.local:
            n = len(loc.orders)
            out *= loc.conductor(exps[at : at + n])
            at += n
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


@dataclass(frozen=True)
class DirichletChar:
    """Character of (Z/fZ)^x with values recorded as powers of zeta_e."""

    modulus: int
    exponent: int               # e = exponent of the unit group
    gen_exponents: tuple        # chi(g_i) = zeta_e^{gen_exponents[i]}, g_i the
                                # generators of the CRT-local cyclic factors
    conductor: int

    def log_value(self, x: int):
        """k with chi(x) = zeta_e^k, or None when gcd(x, modulus) > 1."""
        ex = _unit_group(self.modulus).log(x)
        if ex is None:
            return None
        return sum(a * k for a, k in zip(self.gen_exponents, ex)) % self.exponent


def characters(f: int) -> list[DirichletChar]:
    """All characters of (Z/fZ)^x with conductors, trivial character first."""
    group = _unit_group(f)
    return [
        DirichletChar(
            f,
            group.exponent,
            tuple(s * c for s, c in zip(group.steps, exps)),
            group.conductor(exps),
        )
        for exps in product(*map(range, group.orders))
    ]


# ---------------------------------------------------------------------------
# The u function


@lru_cache(maxsize=None)
def _level(f: int):
    """(phi(f), {x: phi(f) u(x/f)}) over the units x mod f, certified."""
    units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
    phi = len(units)
    terms = [(phi, f, 1)]  # (+-phi(f_S), f_S, m_S) per subset S of the primes
    for p, k in ARCHIMEDEAN.factor(f):
        pk = p**k
        terms += [(-c // (pk - pk // p), m // pk, r * p) for c, m, r in terms]
    scaled = {x: sum(c for c, m, r in terms if (x - r) % m == 0) for x in units}
    _certify(f, scaled)
    return phi, scaled


def _certify(f: int, scaled: dict) -> int:
    """Check the defining identity for every character of (Z/f)^x against
    the scaled values {x: phi(f) u(x/f)}; return the number of characters."""
    group = _unit_group(f)
    e, orders, steps, strides = group.exponent, group.orders, group.steps, group.strides
    phi = len(scaled)
    table = [0] * phi
    for x, v in scaled.items():
        table[sum(a * b for a, b in zip(group.log(x), strides))] = v
    # The largest factor goes first: it turns scalars into zeta-vectors by
    # placing them, which costs no vector additions.
    axes = sorted(range(len(orders)), key=lambda i: -orders[i])
    if not axes:  # the trivial group (f = 1, 2), e = 1
        table = [[v] for v in table]
    for n, axis in enumerate(axes):
        s, stride, step = orders[axis], strides[axis], steps[axis]
        block = s * stride
        out = [None] * phi
        for base in range(0, phi, block):
            for at in range(base, base + stride):
                column = table[at : at + block : stride]
                for c in range(s):
                    acc = [0] * e
                    if n == 0:
                        for k, v in enumerate(column):
                            acc[step * c * k % e] += v
                    else:
                        for k, v in enumerate(column):
                            acc = [a + b for a, b in zip(acc, _rotate(v, step * c * k % e))]
                    out[at + c * stride] = acc
        table = out

    primes = group.prime_data()
    checked = 0
    for lhs, exps in zip(table, product(*map(range, orders))):
        rhs = [phi] + [0] * (e - 1)
        for axes_p, logs in primes:
            if any(exps[i] for i in axes_p):
                continue  # p divides the conductor: the factor is 1 - 0
            t = sum(s * c * k for s, c, k in zip(steps, exps, logs)) % e
            rhs = [a - b for a, b in zip(rhs, _rotate(rhs, t))]
        if any(reduce_zeta_vector([a - b for a, b in zip(lhs, rhs)], e)):
            raise RationalityFailure(f"character identity fails at level {f}")
        checked += 1
    return checked


def u_values(f: int) -> dict:
    """Exact values u(x/f) for x prime to f, from the certified closed form."""
    phi, scaled = _level(f)
    return {x: Fraction(v, phi) for x, v in scaled.items()}


def u_of(value: Fraction) -> Fraction:
    """u at any rational, through the reduced fraction's level."""
    value = Fraction(value) % 1
    f = value.denominator
    phi, scaled = _level(f)
    return Fraction(scaled[value.numerator], phi)


def distribution_relation_holds(a: Fraction, g: int) -> bool:
    """u(a) = sum_{i<g} u((a+i)/g), checked exactly."""
    total = sum((u_of(Fraction(a + i, g)) for i in range(g)), Fraction(0))
    return total == u_of(a)


@lru_cache(maxsize=None)
def _level_table(f: int):
    """(L, U) with U[n] = L u(n/f) for 0 <= n < f, L = lcm of phi(d), d | f."""
    levels = {d: _level(d) for d in ARCHIMEDEAN.divisors(f)}
    scale = lcm(*(phi for phi, _ in levels.values()))
    table = []
    for n in range(f):
        g = gcd(n, f)
        phi, scaled = levels[f // g]
        table.append(scaled[n // g] * (scale // phi))
    return scale, tuple(table)


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
    return _relations_hold(_level_table(f)[1], f)


def _orbit_table(f: int):
    """(D, W): D the lcm of the reduced denominators of u(n/f), 0 <= n < f,
    and W[n] = D u(n/f), all integers."""
    scale, table = _level_table(f)
    common = gcd(scale, *table)
    return scale // common, [v // common for v in table]


# ---------------------------------------------------------------------------
# The classical lattice and the comparison map


@dataclass(frozen=True)
class UPrimeReport:
    level: int
    lattice_rank: int
    expected_rank: int
    relations_killed: bool
    equivariant: bool
    index_invariants: tuple
    isomorphism: bool


@dataclass(frozen=True)
class UPrimeLattice:
    """The classical lattice in Q[G_f]: group translates of u-orbit vectors.

    Coordinates are indexed by the unit residues in ``group`` order; the
    ``basis`` matrix is for the lattice scaled by ``denominator`` (every
    generating vector times the denominator is integral).  The Z-rank always
    equals |G_f|, enforced at construction.
    """

    level: int
    group: tuple
    generators: tuple        # rational vectors, one per (divisor, translate)
    denominator: int
    basis: IntMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols


def uprime_lattice(f: int) -> UPrimeLattice:
    units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
    inverses = [pow(delta, -1, f) for delta in units]
    denom, orbit = _orbit_table(f)
    # coordinate at delta of sigma * (u(delta^-1 / g))_delta, as an index n
    # of u(n/f)
    at = [
        [sigma * dinv * (f // g) % f for dinv in inverses]
        for g in ARCHIMEDEAN.divisors(f)
        for sigma in units
    ]
    values = [Fraction(v, denom) for v in orbit]
    generators = tuple(tuple(values[n] for n in col) for col in at)
    basis = image_basis(
        IntMatrix.from_columns([[orbit[n] for n in col] for col in at], rows=len(units))
    )
    if basis.cols != len(units):
        raise RankMismatch(f"lattice rank {basis.cols}, expected {len(units)}")
    return UPrimeLattice(f, tuple(units), generators, denom, basis)


def uprime_compare(f: int, u: UModule | None = None) -> UPrimeReport:
    """Build the lattice, map the distribution module onto it, certify."""
    if f < 2:
        raise ValueError("comparison needs f > 1")
    if u is None:
        u = u_module(build_af(ARCHIMEDEAN, f))
    af = u.parent
    lattice = uprime_lattice(f)
    units = list(lattice.group)
    phi_f = len(units)
    basis = lattice.basis
    inverses = [pow(delta, -1, f) for delta in units]
    _, orbit = _orbit_table(f)

    # the u-orbit map on classes, scaled by the lattice denominator: the
    # coordinate at delta of the image of xi = num/g is u(delta^-1 num / g)
    image_int = IntMatrix.from_columns(
        [[orbit[dinv * xi.num * (f // xi.order) % f] for dinv in inverses] for xi in af.basis],
        rows=phi_f,
    )
    relations_killed = (image_int * u.relation_matrix.dense()).is_zero()
    if not relations_killed:
        raise RelationNotKilled("distribution relations survive the u-orbit map")
    # the induced map on the free basis, in lattice coordinates
    mapped = image_int * u.section.dense()
    coords = solve(basis, mapped)
    inv = snf_invariants(coords)
    iso = coords.rows == coords.cols == phi_f and all(d == 1 for d in inv)

    equivariant = True
    for sigma in af.group.generators():
        t = sigma.residue
        perm_q = IntMatrix.from_columns(
            [
                [1 if (t * delta) % f == target else 0 for target in units]
                for delta in units
            ],
            rows=phi_f,
        )
        perm = class_matrix([g_action(af.backend, sigma, xi) for xi in af.basis], af.index)
        op = u.induce(perm)
        if perm_q * mapped != mapped * op:
            equivariant = False
    return UPrimeReport(
        f, basis.cols, phi_f, relations_killed, equivariant, inv, iso and equivariant
    )

