"""The archimedean u-function and the comparison with the classical lattice.

u is the unique period-1 rational function whose character transform at every
level f is the product of (1 - chi(p)) over primes p | f, with chi taken
primitive (chi(p) = 0 when p divides the conductor).  Values are obtained by
exact orthogonality inversion inside Z[zeta_e], e the exponent of (Z/fZ)^x:
the inversion sum is accumulated as an integer vector of zeta-powers and
reduced modulo the cyclotomic polynomial, where it must collapse to a
constant.  Any non-constant remainder is an arithmetic bug, not a rounding
problem, and raises immediately.

The classical lattice at level f is the Z[G_f]-span in Q[G_f] of the vectors
(u(t_gamma / g))_gamma for divisors g | f; it is free of rank |G_f|, and the
map sending a class to its u-orbit vector identifies the universal
distribution with it, certified here by an index-one determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import ARCHIMEDEAN, g_action
from .distmod import UModule, build_af, class_matrix, u_module
from .znf import IntMatrix, image_basis, snf_invariants, solve


class RationalityFailure(ArithmeticError):
    pass


class RankMismatch(RuntimeError):
    pass


class RelationNotKilled(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic


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


class CycloNumber:
    """Element of Q(zeta_n) as a rational vector modulo Phi_n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        deg = len(cyclotomic_polynomial(order)) - 1
        vec = [Fraction(0)] * deg
        if coeffs is not None:
            for i, c in enumerate(coeffs):
                vec[i] = Fraction(c)
        self.order = order
        self.coeffs = vec

    @classmethod
    def zeta_power(cls, order: int, k: int) -> "CycloNumber":
        vec = [0] * order
        vec[k % order] = 1
        reduced = reduce_zeta_vector(vec, order)
        return cls(order, reduced)

    @classmethod
    def rational(cls, order: int, value) -> "CycloNumber":
        out = cls(order)
        out.coeffs[0] = Fraction(value)
        return out

    def __add__(self, other):
        out = CycloNumber(self.order)
        out.coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return out

    def __sub__(self, other):
        out = CycloNumber(self.order)
        out.coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = CycloNumber(self.order)
            out.coeffs = [a * other for a in self.coeffs]
            return out
        prod = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c:
                shift = i - deg
                for j, p in enumerate(phi):
                    prod[shift + j] -= c * p
        out = CycloNumber(self.order)
        out.coeffs = prod[:deg]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CycloNumber)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise RationalityFailure(f"not rational: {self.coeffs}")
        return self.coeffs[0]

    def __repr__(self):
        return f"CycloNumber(order={self.order}, {self.coeffs})"


# ---------------------------------------------------------------------------
# The unit group (Z/fZ)^x and its characters


@lru_cache(maxsize=None)
def unit_group_structure(f: int):
    """Generators and their orders for (Z/fZ)^x, CRT-combined."""
    if f == 1:
        return (), ()
    gens = []
    orders = []
    for p, e in ARCHIMEDEAN.factor(f):
        pe = p**e
        rest = f // pe
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                local = [(3, 2)]
            else:
                local = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            local = [(_primitive_root(p, e), (p - 1) * p ** (e - 1))]
        for g, order in local:
            lifted = _crt(g, pe, 1, rest) if rest > 1 else g % f
            gens.append(lifted)
            orders.append(order)
    return tuple(gens), tuple(orders)


def _primitive_root(p, e):
    pe = p**e
    target = (p - 1) * p ** (e - 1)
    for g in range(2, pe):
        if gcd(g, pe) != 1:
            continue
        order = 1
        x = g % pe
        while x != 1:
            x = (x * g) % pe
            order += 1
        if order == target:
            return g
    raise ArithmeticError(f"no primitive root mod {p}^{e}")


def _crt(a1, m1, a2, m2):
    inv = pow(m1, -1, m2)
    return (a1 + m1 * (((a2 - a1) * inv) % m2)) % (m1 * m2)


@lru_cache(maxsize=None)
def _unit_logs(f: int):
    """residue -> exponent tuple over the generator decomposition."""
    gens, orders = unit_group_structure(f)
    logs = {1 % f: (0,) * len(gens)}
    frontier = [1 % f]
    while frontier:
        fresh = []
        for x in frontier:
            ex = logs[x]
            for i, g in enumerate(gens):
                y = (x * g) % f
                if y not in logs:
                    ey = list(ex)
                    ey[i] = (ey[i] + 1) % orders[i]
                    logs[y] = tuple(ey)
                    fresh.append(y)
        frontier = fresh
    return logs


@dataclass(frozen=True)
class DirichletChar:
    """Character of (Z/fZ)^x with values recorded as powers of zeta_e."""

    modulus: int
    exponent: int               # e = exponent of the unit group
    gen_exponents: tuple        # chi(g_i) = zeta_e^{gen_exponents[i]}
    conductor: int

    def log_value(self, x: int):
        """k with chi(x) = zeta_e^k, or None when gcd(x, modulus) > 1."""
        x = x % self.modulus
        logs = _unit_logs(self.modulus)
        if x not in logs:
            return None
        ex = logs[x]
        return sum(a * k for a, k in zip(self.gen_exponents, ex)) % max(self.exponent, 1)

    def value(self, x: int) -> CycloNumber:
        k = self.log_value(x)
        if k is None:
            return CycloNumber.rational(max(self.exponent, 1), 0)
        return CycloNumber.zeta_power(max(self.exponent, 1), k)

    def log_primitive_value(self, y: int):
        """Value of the primitive character of conductor c at y (y prime to c)."""
        if self.conductor == 1:
            return 0
        if gcd(y, self.conductor) != 1:
            return None
        # lift y to a residue prime to the full modulus in the same class mod c
        x = y % self.conductor
        while gcd(x, self.modulus) != 1:
            x += self.conductor
        return self.log_value(x)

    def log_at_prime(self, p: int):
        """chi(p) for the prime-product identity: None encodes the value 0."""
        if self.conductor > 1 and self.conductor % p == 0:
            return None
        return self.log_primitive_value(p)


def characters(f: int) -> list[DirichletChar]:
    """All characters of (Z/fZ)^x with conductors, trivial character first."""
    gens, orders = unit_group_structure(f)
    e = 1
    for s in orders:
        e = lcm(e, s)
    chars = []
    exponent_ranges = [range(s) for s in orders]
    import itertools

    for combo in itertools.product(*exponent_ranges):
        gen_exps = tuple((e // orders[i]) * combo[i] for i in range(len(orders)))
        chars.append(_with_conductor(f, e, gen_exps))
    chars.sort(key=lambda ch: (ch.gen_exponents != (0,) * len(gens), ch.gen_exponents))
    return chars


def _with_conductor(f: int, e: int, gen_exps: tuple) -> DirichletChar:
    probe = DirichletChar(f, e, gen_exps, f)
    conductor = f
    for c in ARCHIMEDEAN.divisors(f):
        if all(
            probe.log_value(x) == 0
            for x in range(1, f + 1)
            if gcd(x, f) == 1 and x % c == 1 % c
        ):
            conductor = c
            break
    return DirichletChar(f, e, gen_exps, conductor)


# ---------------------------------------------------------------------------
# The u function


@lru_cache(maxsize=None)
def u_values(f: int) -> dict:
    """Exact values u(x/f) for x prime to f, by orthogonality inversion.

    Besides inverting the defining identity, this re-substitutes the values
    into it for every character and raises if anything fails exactly.
    """
    if f == 1:
        return {0: Fraction(1)}
    chars = characters(f)
    e = chars[0].exponent if chars else 1
    e = max(e, 1)
    primes = [p for p, _ in ARCHIMEDEAN.factor(f)]
    units = [x for x in range(1, f + 1) if gcd(x, f) == 1]
    phi_f = len(units)

    # per character: the expansion of prod_p (1 - chi(p)) as zeta powers
    expansions = []
    for ch in chars:
        terms = [(0, 1)]  # (exponent of zeta_e, integer coefficient)
        for p in primes:
            k = ch.log_at_prime(p)
            if k is None:
                continue  # factor (1 - 0) = 1
            terms = [(t, c) for t, c in terms] + [((t + k) % e, -c) for t, c in terms]
        expansions.append(terms)

    values = {}
    for x in units:
        vec = [0] * e
        for ch, terms in zip(chars, expansions):
            kx = ch.log_value(x)
            for t, c in terms:
                vec[(t - kx) % e] += c
        reduced = reduce_zeta_vector(vec, e)
        if any(reduced[1:]):
            raise RationalityFailure(
                f"u({x}/{f}) is not rational: remainder {reduced}"
            )
        values[x % f] = Fraction(reduced[0], phi_f)

    _check_identity(f, chars, values, primes, e)
    return values


def _check_identity(f, chars, values, primes, e):
    # sum_x u(x/f) chi(x) must equal prod_p (1 - chi(p)) exactly, for every chi
    phi_f = len(values)
    for ch in chars:
        lhs = [0] * e
        for x, val in values.items():
            scaled = val * phi_f  # integer by construction
            lhs[ch.log_value(x) % e] += int(scaled)
        rhs = [0] * e
        terms = [(0, 1)]
        for p in primes:
            k = ch.log_at_prime(p)
            if k is None:
                continue
            terms = terms + [((t + k) % e, -c) for t, c in terms]
        for t, c in terms:
            rhs[t] += c * phi_f
        if reduce_zeta_vector(lhs, e) != reduce_zeta_vector(rhs, e):
            raise RationalityFailure(f"character identity fails at level {f}")


def u_of(value: Fraction) -> Fraction:
    """u at any rational, through the reduced fraction's level."""
    value = Fraction(value) % 1
    f = value.denominator
    x = value.numerator % f if f > 1 else 0
    return u_values(f)[x]


def distribution_relation_holds(a: Fraction, g: int) -> bool:
    """u(a) = sum_{i<g} u((a+i)/g), checked exactly."""
    total = sum((u_of(Fraction(a + i, g)) for i in range(g)), Fraction(0))
    return total == u_of(a)


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
    units = [x for x in range(1, f + 1) if gcd(x, f) == 1]
    if f == 1:
        units = [1]
    index = {x % f: i for i, x in enumerate(units)}
    vectors = []
    for g in ARCHIMEDEAN.divisors(f):
        base = []
        for delta in units:
            dinv = pow(delta, -1, f) if f > 1 else 1
            t = dinv % g if g > 1 else 0
            base.append(u_of(Fraction(t, g) if g > 1 else Fraction(0)))
        for sigma in units:
            # coordinate at delta of sigma * v is v at sigma^{-1} delta
            sinv = pow(sigma, -1, f) if f > 1 else 1
            vec = tuple(base[index[(sinv * delta) % f]] for delta in units)
            vectors.append(vec)
    denom = 1
    for vec in vectors:
        for val in vec:
            denom = lcm(denom, val.denominator)
    lattice_int = IntMatrix.from_columns(
        [[int(v * denom) for v in vec] for vec in vectors], rows=len(units)
    )
    basis = image_basis(lattice_int)
    if basis.cols != len(units):
        raise RankMismatch(f"lattice rank {basis.cols}, expected {len(units)}")
    return UPrimeLattice(f, tuple(units), tuple(vectors), denom, basis)


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
    denom = lattice.denominator
    basis = lattice.basis

    # the u-orbit map on classes: coord at delta of the image of xi
    images = []
    for xi in af.basis:
        g = xi.order
        col = []
        for delta in units:
            dinv = pow(delta, -1, f) if f > 1 else 1
            if g == 1:
                col.append(u_of(Fraction(0)))
            else:
                t = (dinv % g) * xi.num % g
                col.append(u_of(Fraction(t, g)))
        images.append(col)

    # images lie in the lattice, so the generator denominator clears them too
    scaled = []
    for col in images:
        out = []
        for v in col:
            value = v * denom
            if value.denominator != 1:
                raise RelationNotKilled("u-orbit image does not clear denominators")
            out.append(int(value))
        scaled.append(out)
    image_int = IntMatrix.from_columns(scaled, rows=phi_f)
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

