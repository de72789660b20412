import dataclasses
import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    IntMatrix,
    _span_rank,
    characters,
    dense,
    distribution_relation_holds,
    induced_operator,
    snf_invariants,
    solve,
    u_of,
    uprime_lattice,
    with_map_uncertified,
)
import uod.iwasawa as iwasawa
from uod import znf
from uod.arith import ARCHIMEDEAN, gf_group
from uod.chainkit import MapOperator
from uod.cli import main
from uod.distmod import StructureCheckFailed, build_af, distribution_relations, g_op_name, u_module
from uod.iwasawa import (
    GeneratorMismatch,
    RationalityFailure,
    RelationNotKilled,
    UPrimeReport,
    _certify,
    _closed_form,
    _level,
    _level_table,
    _slot_bits,
    _relations_hold,
    _unit_group,
    cyclotomic_polynomial,
    level_relations_hold,
    u_values,
    uprime_compare,
)
from uod.znf import SparseMatrix


def reduce_zeta_vector(vec, order: int):
    """Reduce an integer vector of zeta_order powers modulo Phi_order,
    coefficient by coefficient: the test-only reference for the packed
    divisibility test of ``_certify``."""
    phi = list(cyclotomic_polynomial(order))
    terms = [(j, p) for j, p in enumerate(phi) if p]
    num = list(vec)
    deg = len(phi) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            shift = i - deg
            for j, p in terms:
                num[shift + j] -= c * p
    return num[:deg] + [0] * max(deg - len(num), 0)


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


def forget_levels():
    """Forget every level certified and every relation check made so far in
    this process, so that the next table certifies from the start."""
    # the imported names: a test may have patched the module's
    _closed_form.cache_clear()
    _level_table.cache_clear()
    iwasawa._CERTIFIED.clear()
    iwasawa._RELATIONS_HELD.clear()


@pytest.fixture
def fresh_levels():
    # forgotten after the test too: it may have certified changed values
    forget_levels()
    yield
    forget_levels()


@pytest.fixture
def transformed(monkeypatch):
    """The levels ``_certify`` is called at, in call order."""
    seen = []

    def spy(f, scaled):
        seen.append(f)
        return _certify(f, scaled)

    monkeypatch.setattr(iwasawa, "_certify", spy)
    return seen


def uncertified_table(f: int, closed_form) -> list:
    """The level-f table of ``_level_table``, built from these closed forms
    with no certificate."""
    levels = {d: closed_form(d) for d in ARCHIMEDEAN.divisors(f)}
    scale = lcm(*(phi for phi, _ in levels.values()))
    table = []
    for n in range(f):
        g = gcd(n, f)
        phi, scaled = levels[f // g]
        table.append(scaled[n // g] * (scale // phi))
    return table


def prime_part(f: int, d: int) -> int:
    """The part of f on the primes of d."""
    return prod(p**k for p, k in ARCHIMEDEAN.factor(f) if d % p == 0)


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

    def test_certificate_checks_every_character(self, fresh_levels, monkeypatch):
        checked = {}

        def recording(f, scaled):
            checked[f] = _certify(f, scaled)
            return checked[f]

        monkeypatch.setattr(iwasawa, "_certify", recording)
        for f in REFERENCE_LEVELS:
            # forgotten levels, so that the level-f table certifies each again
            forget_levels()
            checked.clear()
            assert level_relations_hold(f), f
            divisors = ARCHIMEDEAN.divisors(f)
            parts = {prime_part(f, d) for d in divisors}
            assert set(checked) == parts and len(parts) == 2 ** len(ARCHIMEDEAN.factor(f)), f
            for d, count in checked.items():
                assert count == len(characters(d)), (f, d)
            # each character mod d is read at the transformed part s of f on
            # the primes of d, as the character mod s of conductor dividing d
            covered = 0
            for d in divisors:
                s = prime_part(f, d)
                chars = [ch for ch in characters(s) if d % ch.conductor == 0]
                assert len(chars) == len(characters(d)), (f, d)
                covered += len(chars)
            assert covered == f

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

    @pytest.mark.parametrize("f", [5, 12, 64, 81, 600, 30030])
    def test_a_huge_change_cannot_alias(self, f):
        # the slot width grows with the values, so a change of 2^200 to one
        # value is no multiple of M = 2^(eB) - 1 in disguise
        for x in (min(_level(f)[1]), max(_level(f)[1])):
            scaled = dict(_level(f)[1])
            scaled[x] += 2**200
            with pytest.raises(RationalityFailure):
                _certify(f, scaled)

    @pytest.mark.parametrize("f", [5, 12, 64, 600])
    def test_a_change_by_the_old_modulus_is_seen(self, f):
        # adding M = 2^(eB) - 1 of the unchanged values to one value is
        # invisible modulo that M; the width taken from the changed values
        # moves M, so the change is refused
        scaled = dict(_level(f)[1])
        e = _unit_group(f).exponent
        modulus = (1 << e * _slot_bits(scaled, e, len(ARCHIMEDEAN.factor(f)))) - 1
        scaled[min(scaled)] += modulus
        with pytest.raises(RationalityFailure):
            _certify(f, scaled)

    def test_slot_width_follows_the_values(self):
        def width(f, scaled):
            group = _unit_group(f)
            return _slot_bits(scaled, group.exponent, len(ARCHIMEDEAN.factor(f)))

        widths = {f: width(f, _level(f)[1]) for f in (5, 12, 64, 600, 30030)}
        assert len(set(widths.values())) > 1, widths
        for f, plain in widths.items():
            scaled = dict(_level(f)[1])
            first = min(scaled)
            scaled[first] += 2**200
            # 2^(B-1) exceeds the sum of |values| on its own
            assert plain < 100 < 201 < width(f, scaled), f
            scaled[first] = -(2**300)
            assert width(f, scaled) > 301, f

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
    def test_level_relations_reject_a_changed_entry(self, fresh_levels, f):
        # forgotten levels: this table checked its relations itself
        _, table, held = iwasawa._level_table(f)
        assert held and f in iwasawa._RELATIONS_HELD
        assert _relations_hold(table, f)
        # u(0) sits on both sides of every relation it enters, so it is left out
        for n in (1, f // 3, f - 1):
            bad = list(table)
            bad[n] += 1
            assert not _relations_hold(bad, f), (f, n)


def one_value_changed(closed_form, d: int):
    """``closed_form`` with its smallest unit's value at level d off by one."""
    def changed(level):
        phi, scaled = closed_form(level)
        if level == d:
            scaled = dict(scaled)
            scaled[min(scaled)] += 1
        return phi, scaled

    return changed


class TestLevelTable:
    """A level-f table transforms only the parts of f on a set of its
    primes; every other divisor level is certified through the level-f
    relations, and no level is certified twice in a process."""

    @pytest.mark.parametrize("f, parts", [
        (600, {1, 3, 8, 24, 25, 75, 200, 600}),
        (81, {1, 81}),
        # squarefree: every divisor is the part of f on its own primes
        (210, set(ARCHIMEDEAN.divisors(210))),
    ])
    def test_transforms_only_the_parts_of_f(self, fresh_levels, transformed, f, parts):
        assert level_relations_hold(f)
        assert sorted(transformed) == sorted(parts)
        assert set(iwasawa._CERTIFIED) == set(ARCHIMEDEAN.divisors(f))

    def test_every_level_up_to_400_is_exact(self, fresh_levels, transformed):
        # downwards: d is first reached in the table of its largest multiple
        # up to 400, and transformed only if it is a part of that multiple
        for f in range(400, 0, -1):
            assert level_relations_hold(f), f
        first = {d: 400 // d * d for d in range(1, 401)}
        parts = [d for d, f in first.items() if gcd(d, f // d) == 1]
        assert sorted(transformed) == parts and len(parts) == 400 - 86
        for d in range(1, 401):
            assert _certify(d, iwasawa._CERTIFIED[d][1]) == len(characters(d)), d
        # the transformed levels took the certificate they always took; the
        # reference inversion, O(phi(d)^2) per level, is compared with the
        # 86 levels that the relations certified
        for d in sorted(set(first) - set(parts)):
            assert u_values(d) == reference_u_values(d), d

    @pytest.mark.parametrize("f, d", [(600, 300), (81, 27)])
    def test_a_changed_value_off_the_parts_exits_3(self, fresh_levels, monkeypatch, capsys, f, d):
        # d is no part of f, so only the relations can send it to its own
        # transform
        assert gcd(d, f // d) > 1
        monkeypatch.setattr(iwasawa, "_closed_form", one_value_changed(iwasawa._closed_form, d))
        assert main(["verify", "u-function", "--f", str(f)]) == 3
        assert f"character identity fails at level {d}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("f, d", [(60, 30), (81, 27)])
    def test_a_changed_conductor_level_off_the_parts_exits_3_in_uprime(
            self, fresh_levels, monkeypatch, capsys, f, d):
        # the rank of U'(f) rests on the identity at every conductor level
        # c | f; one certified through the relations is still refused
        assert gcd(d, f // d) > 1
        monkeypatch.setattr(iwasawa, "_closed_form", one_value_changed(iwasawa._closed_form, d))
        assert main(["verify", "uprime", "--f", str(f)]) == 3
        assert f"character identity fails at level {d}\n" in capsys.readouterr().err

    def test_a_distribution_other_than_u_is_refused(self, fresh_levels, monkeypatch, capsys):
        # u doubled at every level but 1 keeps every distribution relation
        # (the u(i/g), 0 < i < g, sum to 0), so only the transforms refuse it
        closed_form = iwasawa._closed_form

        def doubled(level):
            phi, scaled = closed_form(level)
            return phi, {x: v * (1 if level == 1 else 2) for x, v in scaled.items()}

        for f in (12, 60, 81):
            assert _relations_hold(uncertified_table(f, doubled), f), f
        monkeypatch.setattr(iwasawa, "_closed_form", doubled)
        assert main(["verify", "uprime", "--f", "60"]) == 3
        assert "character identity fails" in capsys.readouterr().err

    def test_a_divisor_of_a_checked_level_is_certified_already(
            self, fresh_levels, monkeypatch, capsys):
        assert main(["verify", "u-function", "--f", "600"]) == 0
        calls = []
        monkeypatch.setattr(iwasawa, "_certify", lambda *args: calls.append("certify"))
        monkeypatch.setattr(iwasawa, "_relations_hold", lambda *args: calls.append("relations"))
        assert main(["verify", "uprime", "--f", "60"]) == 0
        assert calls == []

    def test_a_multiple_transforms_its_own_parts(self, fresh_levels, monkeypatch, transformed):
        # the relations at 60 are some of those at 600, not the other way
        assert level_relations_hold(60)
        transformed.clear()
        checked = []
        relations = iwasawa._relations_hold
        monkeypatch.setattr(iwasawa, "_relations_hold",
                            lambda table, f: checked.append(f) or relations(table, f))
        assert level_relations_hold(600)
        assert sorted(transformed) == [8, 24, 25, 75, 200, 600]
        assert checked == [600]


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
        assert report == UPrimeReport(3, 2, True)

    def test_f4(self):
        report = uprime_compare(4)
        assert report.rank == 2 and report.equivariant

    def test_f12(self):
        report = uprime_compare(12)
        assert report.rank == 4 and report.equivariant

    def test_rejects_unit_level(self):
        with pytest.raises(ValueError):
            uprime_compare(1)

    def test_reads_the_induced_generators(self, monkeypatch):
        # u_module has certified that the relations are preserved, so the
        # generators' induced maps are compared with no product against them
        rel = distribution_relations(build_af(ARCHIMEDEAN, 60))
        real = SparseMatrix.__mul__

        def spy(a, b):
            assert b != rel, "uprime_compare induced an operator again"
            return real(a, b)

        monkeypatch.setattr(SparseMatrix, "__mul__", spy)
        report = uprime_compare(60)
        assert report.equivariant

    @pytest.mark.parametrize("f", [45, 56, 70, 77, 84, 90, 99, 120])
    def test_levels_whose_bases_once_blew_up(self, f):
        # read off Smith transforms, the lattice basis reached 31k bits at
        # f = 84 and took 100 s and more at each of these levels
        report = uprime_compare(f)
        assert report.rank == sum(1 for x in range(1, f) if gcd(x, f) == 1)
        assert report.equivariant


# ---------------------------------------------------------------------------
# Reference: the comparison through U'(f)'s Hermite basis with dense
# products, as uprime_compare made it before its structural certificate.


def _image(f: int, u) -> IntMatrix:
    """The u-orbit map on A(f), scaled by the lattice denominator: column xi
    is the orbit vector of the class xi, its coordinates in G_f order."""
    units = [el.residue for el in u.parent.group]
    _, orbit = iwasawa._orbit_table(f)
    return IntMatrix.from_columns(
        [[orbit[pow(d, -1, f) * xi.num * (f // xi.order) % f] for d in units]
         for xi in u.parent.basis],
        rows=len(units),
    )


def hermite_report(f: int, u) -> UPrimeReport:
    """The image matrix times the relations and the section, coordinates of
    the induced map in the Hermite basis of U'(f) by ``solve``, their Smith
    invariants, and perm * mapped == mapped * op for each generator.

    A report stands for a map that kills the relations and is a basis of
    U'(f) (``uprime_compare`` raises otherwise), so those two are asserted."""
    af = u.parent
    lattice = uprime_lattice(f)
    units = list(lattice.group)
    phi_f = len(units)
    image = _image(f, u)
    assert (image * dense(u.relations)).is_zero(), "a relation survives the map"
    mapped = image * dense(u.section)
    coords = solve(lattice.basis, mapped)
    assert coords.rows == coords.cols == phi_f and set(snf_invariants(coords)) <= {1}, \
        "the map is not a basis of U'(f)"
    equivariant = True
    for sigma in af.group.generators():
        t = sigma.residue
        perm = IntMatrix.from_columns(
            [[1 if t * d % f == target else 0 for target in units] for d in units], rows=phi_f
        )
        op = dense(induced_operator(u, g_op_name(ARCHIMEDEAN, t)))
        equivariant = equivariant and perm * mapped == mapped * op
    return UPrimeReport(f, lattice.rank, equivariant)


def _module(f: int):
    return u_module(build_af(ARCHIMEDEAN, f))


def _exact_rank(vectors) -> int:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        for i in range(rank + 1, len(rows)):
            k = rows[i][c] / rows[rank][c]
            rows[i] = [a - k * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _mapped_columns(f, u):
    """The columns of the induced map on U(f)'s basis: the image times the
    section."""
    return (_image(f, u) * dense(u.section)).columns()


class TestUPrimeCertificate:
    @pytest.mark.parametrize("f", list(range(2, 121)) + [240])
    def test_structural_report_matches_the_hermite_oracle(self, f):
        u = _module(f)
        report = uprime_compare(f, u)
        assert report == hermite_report(f, u)

    def test_structural_route_builds_no_lattice_basis(self, monkeypatch):
        # _hermite is the only lattice basis src/uod can build
        def refuse(*_args):
            raise AssertionError("uprime_compare built a lattice basis")

        monkeypatch.setattr(znf, "_hermite", refuse)
        assert uprime_compare(120) == UPrimeReport(120, 32, True)

    def test_singular_map_is_never_an_isomorphism(self):
        # two basis classes sent to the same image: the section is no right
        # inverse of the projection, so the map is refused before any count
        f = 60
        u = _module(f)
        cols = list(u.section.entries)
        cols[1] = cols[0]
        bad = dataclasses.replace(u, section=SparseMatrix(u.section.rows, cols))
        assert _exact_rank(_mapped_columns(f, bad)) == 15
        with pytest.raises(StructureCheckFailed):
            uprime_compare(f, bad)

    @pytest.mark.parametrize("f, g", [(12, 2), (12, 12), (60, 5), (60, 1), (81, 27)])
    def test_dropped_generator_divisor_fails_the_identity(self, monkeypatch, f, g):
        offsets = iwasawa._generator_offsets

        def dropped(level, units):
            # the generators (g, sigma) are the offsets n0 with gcd(n0, f) = f/g
            return [n0 for n0 in offsets(level, units) if gcd(n0, level) != level // g]

        u = _module(f)
        monkeypatch.setattr(iwasawa, "_generator_offsets", dropped)
        with pytest.raises(GeneratorMismatch):
            uprime_compare(f, u)

    @pytest.mark.parametrize("f", [12, 60, 81])
    def test_changed_orbit_value_breaks_a_relation(self, monkeypatch, f):
        u = _module(f)
        table = iwasawa._orbit_table
        for n in range(1, f):
            def changed(level, n=n):
                denom, orbit = table(level)
                orbit = list(orbit)
                orbit[n] += 1
                return denom, orbit

            monkeypatch.setattr(iwasawa, "_orbit_table", changed)
            with pytest.raises(RelationNotKilled):
                uprime_compare(f, u)

    @pytest.mark.parametrize("f", [12, 60])
    def test_zeroed_norm_value_fails_the_rank_check(self, monkeypatch, f):
        # u(0) cancels from every relation it enters; at 0 the norm class
        # maps to zero, so the orbit vector of the class 1/1 = 0 has no nonzero
        # transform at the trivial character, and the conductor lemma's
        # premise that the map reads the certified u(0) refuses it
        table = iwasawa._orbit_table

        def zeroed(level):
            denom, orbit = table(level)
            return denom, [0] + list(orbit[1:])

        monkeypatch.setattr(iwasawa, "_orbit_table", zeroed)
        u = _module(f)
        with pytest.raises(RationalityFailure, match=f"u\\(0/{f}\\) is not the certified value"):
            uprime_compare(f, u)

    @pytest.mark.parametrize("f", [12, 60])
    def test_non_equivariant_operator_fails(self, f):
        # a generator's map on A(f) replaced past the commutation
        # certificate, by the identity or with two images swapped: U(f)'s
        # operator is induced from it, and only the comparison with the
        # offset permutation refuses it
        af = build_af(ARCHIMEDEAN, f)
        name = g_op_name(ARCHIMEDEAN, af.group.generators()[0].residue)
        swapped = list(af.operators.maps[name].images)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        for wrong in (tuple(range(af.rank)), tuple(swapped)):
            ops = with_map_uncertified(af.operators, name, MapOperator(wrong))
            bad = u_module(dataclasses.replace(af, operators=ops))
            report = uprime_compare(f, bad)
            assert not report.equivariant
            assert report == hermite_report(f, bad)

    @pytest.mark.parametrize("f", [12, 60])
    def test_extra_relation_equal_at_the_identity_is_refused(self, f):
        # e_i - e_j with lam(i) = lam(j) passes the relation test on the
        # coordinate at 1 alone, though the image does not kill it; only
        # the check that the relations are the nu_p - X_p refuses it, when
        # the UModule is built
        u = _module(f)
        image = _image(f, u)
        orbits = image.columns()
        _, orbit = iwasawa._orbit_table(f)
        lam = [orbit[xi.num * (f // xi.order) % f] for xi in u.parent.basis]
        i, j = next((i, j) for i, j in itertools.combinations(range(len(lam)), 2)
                    if lam[i] == lam[j] and orbits[i] != orbits[j])
        extra = SparseMatrix(u.relations.rows, [*u.relations.entries, {i: 1, j: -1}])
        assert not (image * dense(extra)).is_zero()
        with pytest.raises(StructureCheckFailed, match="nu_p - X_p"):
            uprime_compare(f, dataclasses.replace(u, relations=extra))

    @pytest.mark.parametrize("f", [12, 60])
    def test_swapped_generator_permutation_is_not_equivariant(self, f):
        # one generator's class map on A(f) with the columns of two basis
        # classes swapped, as a map past the commutation certificate; U(f)'s
        # operator is induced from it as P op S, and only the comparison
        # with the offset permutation refuses it
        af = build_af(ARCHIMEDEAN, f)
        name = g_op_name(ARCHIMEDEAN, af.group.generators()[0].residue)
        a, b = (next(iter(col)) for col in u_module(af).section.entries[:2])
        cols = list(af.operators.operator(name).entries)
        cols[a], cols[b] = cols[b], cols[a]
        swap = {a: b, b: a}
        images = tuple(swap.get(i, i) for i in af.operators.maps[name].images)
        ops = with_map_uncertified(af.operators, name, MapOperator(images))
        assert ops.operator(name) == SparseMatrix(af.rank, cols)
        bad = u_module(dataclasses.replace(af, operators=ops))
        assert induced_operator(bad, name) == bad.induce_preserving(SparseMatrix(af.rank, cols))
        report = uprime_compare(f, bad)
        assert not report.equivariant
        assert report == hermite_report(f, bad)


def _translates(f, units, vectors):
    """Every G_f-translate x -> v(t^-1 x) of the vectors, indexed like units."""
    where = {x: i for i, x in enumerate(units)}
    return [[v[where[pow(t, -1, f) * x % f]] for x in units] for v in vectors for t in units]


@st.composite
def _unit_vectors(draw):
    """A level f and integer vectors on (Z/f)^x, some of them constant on the
    cosets of the subgroup generated by one unit."""
    f = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 28, 36]))
    units = [x for x in range(1, f) if gcd(x, f) == 1]
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            h = draw(st.sampled_from(units))
            coset = {x: min(x * pow(h, k, f) % f for k in range(len(units))) for x in units}
            values = {r: draw(st.integers(-3, 3)) for r in sorted(set(coset.values()))}
            vectors.append([values[coset[x]] for x in units])
        else:
            vectors.append(draw(st.lists(st.integers(-3, 3), min_size=len(units),
                                         max_size=len(units))))
    return f, units, vectors


class TestSpanRank:
    @given(_unit_vectors())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_exact_rank_of_the_translates(self, case):
        f, units, vectors = case
        assert _span_rank(f, units, vectors) == _exact_rank(_translates(f, units, vectors))

    @pytest.mark.parametrize("f", [5, 12, 16, 21])
    def test_digits_are_wide_enough_not_to_cancel(self, f):
        # with a fixed 40-bit digit, 2^40 w and -w would stack to zero
        units = [x for x in range(1, f) if gcd(x, f) == 1]
        w = [(3 * x) % 7 - 3 for x in units]
        expected = _exact_rank(_translates(f, units, [w]))
        assert expected > 0
        assert _span_rank(f, units, [[(1 << 40) * a for a in w], [-a for a in w]]) == expected

    @pytest.mark.parametrize("f", list(range(1, 421)) + [5040])
    def test_the_classes_1_over_c_span_full_rank(self, f):
        # the conductor lemma behind uprime_compare's rank, against the
        # character count: the orbit vectors v_c(delta) = u(delta^-1/c),
        # c | f, reach every character mod f
        units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
        _, orbit = iwasawa._orbit_table(f)
        vectors = [[orbit[pow(delta, -1, f) * (f // c) % f] for delta in units]
                   for c in ARCHIMEDEAN.divisors(f)]
        assert _span_rank(f, units, vectors) == len(units)
