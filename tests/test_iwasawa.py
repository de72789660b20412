import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

import uod.iwasawa as iwasawa
from uod.arith import ARCHIMEDEAN
from uod.iwasawa import (
    RationalityFailure,
    _certify,
    _level,
    _relations_hold,
    _unit_group,
    characters,
    cyclotomic_polynomial,
    distribution_relation_holds,
    level_relations_hold,
    reduce_zeta_vector,
    u_of,
    u_values,
    uprime_compare,
    uprime_lattice,
)


# ---------------------------------------------------------------------------
# Reference: the orthogonality inversion over a BFS of the unit group, with
# conductors from a scan of (Z/f)^x.  O(phi(f)^2 2^r); test-only oracle.


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


class ReferenceChar:
    def __init__(self, modulus, exponent, gen_exponents, conductor, logs):
        self.modulus = modulus
        self.exponent = exponent
        self.gen_exponents = gen_exponents
        self.conductor = conductor
        self.logs = logs

    def log_value(self, x: int):
        x = x % self.modulus
        if x not in self.logs:
            return None
        ex = self.logs[x]
        return sum(a * k for a, k in zip(self.gen_exponents, ex)) % max(self.exponent, 1)

    def log_primitive_value(self, y: int):
        if self.conductor == 1:
            return 0
        if gcd(y, self.conductor) != 1:
            return None
        x = y % self.conductor
        while gcd(x, self.modulus) != 1:
            x += self.conductor
        return self.log_value(x)

    def log_at_prime(self, p: int):
        if self.conductor > 1 and self.conductor % p == 0:
            return None
        return self.log_primitive_value(p)


def reference_characters(f: int):
    gens, orders = unit_group_structure(f)
    logs = _unit_logs(f)
    e = 1
    for s in orders:
        e = lcm(e, s)
    chars = []
    for combo in itertools.product(*[range(s) for s in orders]):
        gen_exps = tuple((e // orders[i]) * combo[i] for i in range(len(orders)))
        probe = ReferenceChar(f, e, gen_exps, f, logs)
        conductor = f
        for c in ARCHIMEDEAN.divisors(f):
            if all(
                probe.log_value(x) == 0
                for x in range(1, f + 1)
                if gcd(x, f) == 1 and x % c == 1 % c
            ):
                conductor = c
                break
        chars.append(ReferenceChar(f, e, gen_exps, conductor, logs))
    return chars


def reference_u_values(f: int) -> dict:
    """u(x/f) by orthogonality inversion inside Z[zeta_e]."""
    if f == 1:
        return {0: Fraction(1)}
    chars = reference_characters(f)
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
    return values


REFERENCE_LEVELS = list(range(1, 151)) + [180, 240, 432, 600]


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_cyclo_number_arithmetic(self):
        # zeta_4^2 = -1 and zeta_4^4 = 1
        assert reduce_zeta_vector([0, 0, 1, 0], 4) == [-1, 0]
        assert reduce_zeta_vector([0, 0, 0, 0, 1], 4) == [1, 0]

    def test_rationality_detection(self):
        # zeta_3 is no rational number, and 1 + zeta_3 + zeta_3^2 = 0
        assert reduce_zeta_vector([0, 1, 0], 3) == [0, 1]
        assert reduce_zeta_vector([1, 1, 1], 3) == [0, 0]


class TestCharacters:
    def test_f3(self):
        chars = characters(3)
        assert len(chars) == 2
        assert sorted(ch.conductor for ch in chars) == [1, 3]

    def test_f8_conductors(self):
        chars = characters(8)
        assert len(chars) == 4
        assert sorted(ch.conductor for ch in chars) == [1, 4, 8, 8]

    def test_f1(self):
        assert len(characters(1)) == 1

    def test_structure_orders(self):
        total = 1
        for s in _unit_group(8).orders:
            total *= s
        assert total == 4
        for f in range(1, 201):
            assert _unit_group(f).orders == unit_group_structure(f)[1], f

    def test_quadratic_character_values(self):
        chars = characters(3)
        quad = [ch for ch in chars if ch.conductor == 3][0]
        e = quad.exponent
        assert quad.log_value(1) == 0
        assert quad.log_value(2) == e // 2  # chi(2) = -1

    def test_conductors_match_the_definition(self):
        # the least c | f such that chi is trivial on the units = 1 mod c
        for f in range(1, 201):
            units = [x for x in range(1, f + 1) if gcd(x, f) == 1]
            by_divisor = [
                (c, [x for x in units if x % c == 1 % c]) for c in ARCHIMEDEAN.divisors(f)
            ]
            chars = characters(f)
            assert len(chars) == len(units)
            for ch in chars:
                brute = next(
                    c for c, xs in by_divisor if all(ch.log_value(x) == 0 for x in xs)
                )
                assert ch.conductor == brute, (f, ch.gen_exponents)


class TestUValues:
    def test_f1(self):
        assert u_of(Fraction(0)) == 1

    def test_f3_by_hand(self):
        # two-character system solved by hand: u(1/3) = 1/2, u(2/3) = -1/2
        vals = u_values(3)
        assert vals[1] == Fraction(1, 2)
        assert vals[2] == Fraction(-1, 2)

    def test_f2(self):
        assert u_of(Fraction(1, 2)) == 0

    def test_distribution_at_3(self):
        assert u_of(Fraction(0)) == sum(
            u_of(Fraction(i, 3)) for i in range(3)
        )

    def test_distribution_relations_up_to_12(self):
        for f in range(1, 13):
            for g in (d for d in range(2, f + 1) if f % d == 0):
                for a_num in range(0, f, g):
                    a = Fraction(a_num, f)
                    assert distribution_relation_holds(a, g), (f, g, a_num)

    def test_character_identity_internal_check_runs(self):
        # u_values re-substitutes into the defining identity internally
        for f in (5, 8, 12, 16, 21, 24):
            u_values(f)

    def test_trivial_character_sum_is_zero(self):
        # sum over units of u(x/f) equals prod (1 - 1) = 0 for f > 1
        for f in (3, 4, 5, 12):
            assert sum(u_values(f).values()) == 0

    def test_distribution_relations_through_level_squared(self):
        # the full invariant: every relation at levels dividing f^2, f <= 24
        for f in range(1, 25):
            squared = f * f
            for g in (d for d in range(2, squared + 1) if squared % d == 0):
                for a_num in range(0, squared, g):
                    assert distribution_relation_holds(
                        Fraction(a_num, squared), g
                    ), (f, g, a_num)


    def test_closed_form_matches_the_reference_inversion(self):
        for f in REFERENCE_LEVELS:
            assert u_values(f) == reference_u_values(f), f

    def test_worked_value(self):
        # 160 + phi(3) - phi(1) = 161 over phi(600) = 160
        assert u_values(600)[1] == Fraction(161, 160)

    def test_certificate_checks_every_character(self, monkeypatch):
        checked = {}

        def recording(f, scaled):
            checked[f] = _certify(f, scaled)
            return checked[f]

        monkeypatch.setattr(iwasawa, "_certify", recording)
        for f in REFERENCE_LEVELS:
            # the uncached body, so that every level is computed again
            phi, _ = _level.__wrapped__(f)
            assert checked[f] == phi == len(characters(f)), f

    @pytest.mark.parametrize("f", [5, 12, 64, 81, 600])
    def test_certificate_rejects_a_moved_unit(self, f):
        # The sum is kept, so the trivial character alone cannot see it.  At
        # f = 5 moving 1 from u(2/5) to u(3/5) changes chi by +-2i only, which
        # a check of the constant coefficient alone would miss.
        units = list(_level(f)[1])
        for x, y in ((units[0], units[1]), (units[1], units[-2])):
            scaled = dict(_level(f)[1])
            scaled[x] += 1
            scaled[y] -= 1
            with pytest.raises(RationalityFailure):
                _certify(f, scaled)

    def test_level_relations_match_the_rational_check(self):
        for f in range(1, 61):
            expected = all(
                distribution_relation_holds(Fraction(a_num, f), g)
                for g in range(2, f + 1)
                if f % g == 0
                for a_num in range(0, f, g)
            )
            assert expected and level_relations_hold(f), f

    @pytest.mark.parametrize("f", [12, 64, 81, 600])
    def test_level_relations_reject_a_changed_entry(self, f):
        _, table = iwasawa._level_table(f)
        assert _relations_hold(table, f)
        # u(0) sits on both sides of every relation it enters, so it is left out
        for n in (1, f // 3, f - 1):
            bad = list(table)
            bad[n] += 1
            assert not _relations_hold(bad, f), (f, n)


class TestUPrime:
    def test_denominator_is_the_lcm_of_the_generators(self):
        for f in (3, 4, 12, 16, 20, 60):
            lat = uprime_lattice(f)
            expected = 1
            for vec in lat.generators:
                for v in vec:
                    expected = lcm(expected, v.denominator)
            assert lat.denominator == expected, f
            units = lat.group
            for g in ARCHIMEDEAN.divisors(f):
                base = [u_of(Fraction(pow(d, -1, f) % g, g)) for d in units]
                assert tuple(base) in lat.generators, (f, g)

    def test_lattice_object(self):
        lat = uprime_lattice(3)
        assert lat.rank == 2
        assert lat.group == (1, 2)
        # the divisor-1 generator is the norm vector (1, 1)
        assert (Fraction(1), Fraction(1)) in lat.generators
        # u-orbit vector of the divisor 3: (1/2, -1/2) and its translate
        assert (Fraction(1, 2), Fraction(-1, 2)) in lat.generators

    def test_f3_isomorphism(self):
        report = uprime_compare(3)
        assert report.lattice_rank == 2
        assert report.isomorphism and report.relations_killed and report.equivariant

    def test_f4(self):
        report = uprime_compare(4)
        assert report.lattice_rank == 2 and report.isomorphism

    def test_f12(self):
        report = uprime_compare(12)
        assert report.lattice_rank == 4 and report.isomorphism

    def test_rejects_unit_level(self):
        with pytest.raises(ValueError):
            uprime_compare(1)
