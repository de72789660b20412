import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import sign_action
from uod.arith import (
    ARCHIMEDEAN,
    ArchimedeanBackend,
    FunctionFieldBackend,
    LevelMismatch,
    NotDivisible,
    ParseError,
    backend,
    fiber_map,
    fq_table,
    g_action,
    gf_group,
    parse_polynomial,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_mul,
    poly_trim,
    sign_group,
    xi_classes,
    xi_from_fraction,
    y_fiber,
    y_map,
)

Q = ArchimedeanBackend()
F3 = FunctionFieldBackend(3)
F2 = FunctionFieldBackend(2)

T = (0, 1)
T_PLUS_1 = (1, 1)


class TestFqTables:
    def test_prime_field(self):
        f5 = fq_table(5)
        assert f5.mul(2, 3) == 1
        assert f5.inv(2) == 3
        assert f5.generator == 2

    def test_f4_least_irreducible(self):
        f4 = fq_table(4)
        # modulus is x^2 + x + 1, so x * x = x + 1 (code 2 * 2 = 3)
        assert f4.modulus == [1, 1, 1]
        assert f4.mul(2, 2) == 3

    def test_f9_least_irreducible(self):
        f9 = fq_table(9)
        assert f9.modulus == [1, 0, 1]  # x^2 + 1
        assert f9.mul(3, 3) == f9.neg(1)  # x * x = -1

    def test_f8(self):
        f8 = fq_table(8)
        assert f8.modulus == [1, 1, 0, 1]  # x^3 + x + 1
        x = 2
        assert f8.mul(f8.mul(x, x), x) == 3  # x^3 = x + 1

    def test_every_q_has_generator(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            fq = fq_table(q)
            x = fq.generator
            seen = {x}
            while x != 1:
                x = fq.mul(x, fq.generator)
                seen.add(x)
            assert len(seen) == q - 1


class TestIdealArithmetic:
    def test_radical_archimedean(self):
        assert Q.radical(12) == 6

    def test_factor_f3(self):
        t2_plus_t = parse_polynomial("T^2+T", 3)
        factors = F3.factor(t2_plus_t)
        assert factors == ((T, 1), (T_PLUS_1, 1))

    def test_divide_not_divisible(self):
        with pytest.raises(NotDivisible):
            F3.divide(T, T_PLUS_1)

    def test_factor_with_multiplicity(self):
        sq = F3.mul(T, T)
        assert F3.factor(F3.mul(sq, T_PLUS_1)) == ((T, 2), (T_PLUS_1, 1))

    def test_archimedean_factor(self):
        assert Q.factor(60) == ((2, 2), (3, 1), (5, 1))
        assert Q.divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_parse_and_format_roundtrip(self):
        for text in ("T", "T+1", "T^2+2*T+1", "T*(T+1)", "(T^2+1)*T"):
            poly = F3.parse_ideal(text)
            again = F3.parse_ideal(F3.format_ideal(poly))
            assert poly == again

    def test_parse_rejects_nonmonic(self):
        with pytest.raises(ParseError):
            F3.parse_ideal("2*T")
        with pytest.raises(ParseError):
            Q.parse_ideal("T")

    def test_parse_polynomial_mod_p(self):
        assert parse_polynomial("3*T+4", 3) == (1,)
        assert parse_polynomial("T-1", 3) == (2, 1)


class TestXiClasses:
    def test_archimedean_level_4(self):
        classes = xi_classes(Q, 4)
        assert len(classes) == 4
        as_pairs = {(xi.num, xi.order) for xi in classes}
        assert as_pairs == {(0, 1), (1, 2), (1, 4), (3, 4)}

    def test_f3_level_t(self):
        classes = xi_classes(F3, T)
        assert len(classes) == 3
        assert {(xi.num, xi.order) for xi in classes} == {
            ((), (1,)),
            ((1,), T),
            ((2,), T),
        }

    def test_unit_level(self):
        assert len(xi_classes(Q, 1)) == 1
        assert xi_classes(Q, 1)[0].order == 1

    def test_canonical_reduction(self):
        assert xi_from_fraction(Q, 2, 4) == xi_from_fraction(Q, 1, 2)
        assert xi_from_fraction(F3, T, F3.mul(T, T)) == xi_from_fraction(F3, (1,), T)


class TestYMap:
    def test_y2_kills_half(self):
        assert y_map(Q, 2, xi_from_fraction(Q, 1, 2)) == xi_from_fraction(Q, 0, 1)

    def test_y2_on_quarter(self):
        assert y_map(Q, 2, xi_from_fraction(Q, 1, 4)) == xi_from_fraction(Q, 1, 2)

    def test_ff_t_on_1_over_t(self):
        assert y_map(F3, T, xi_from_fraction(F3, (1,), T)) == xi_from_fraction(F3, (), (1,))

    def test_composition_exhaustive(self):
        # Y_f . Y_g = Y_{fg} on all classes at small archimedean levels
        for level in range(1, 13):
            for f in (1, 2, 3):
                for g in (1, 2, 4):
                    for xi in xi_classes(Q, level):
                        assert y_map(Q, f, y_map(Q, g, xi)) == y_map(Q, f * g, xi)

    def test_composition_ff(self):
        level = F3.mul(T, T_PLUS_1)
        for xi in xi_classes(F3, level):
            assert y_map(F3, T, y_map(F3, T_PLUS_1, xi)) == y_map(F3, level, xi)


class TestYFiber:
    def test_paper_fiber_half(self):
        xi = xi_from_fraction(Q, 1, 2)
        fiber = y_fiber(Q, 2, xi, 4)
        assert {(e.num, e.order) for e in fiber} == {(1, 4), (3, 4)}

    def test_fiber_of_zero_level_3(self):
        fiber = y_fiber(Q, 3, xi_from_fraction(Q, 0, 1), 3)
        assert len(fiber) == 3

    def test_ff_fiber(self):
        fiber = y_fiber(F3, T, xi_from_fraction(F3, (), (1,)), T)
        assert len(fiber) == 3

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            y_fiber(Q, 2, xi_from_fraction(Q, 1, 4), 4)

    def test_fiber_cardinality_everywhere(self):
        # every fiber of Y_g over Xi(level/g) has exactly |A/g| elements
        for g, level in ((2, 8), (3, 9), (2, 12)):
            fibers = fiber_map(Q, g, level)
            base = xi_classes(Q, level // g)
            assert set(fibers) == set(base)
            assert all(len(v) == g for v in fibers.values())


class TestLevelCaches:
    def test_repeated_calls_return_the_cached_object(self):
        for bk, g, level in ((Q, 2, 12), (F3, T, F3.mul(T, T_PLUS_1))):
            assert xi_classes(bk, level) is xi_classes(bk, level)
            assert fiber_map(bk, g, level) is fiber_map(bk, g, level)

    def test_cached_values_are_immutable(self):
        for bk, g, level in ((Q, 3, 18), (F3, T_PLUS_1, F3.mul(T, T_PLUS_1))):
            assert isinstance(xi_classes(bk, level), tuple)
            fibers = fiber_map(bk, g, level)
            assert fibers and all(isinstance(v, tuple) for v in fibers.values())
            for xi in fibers:
                assert y_fiber(bk, g, xi, level) is fibers[xi]

    def test_factor_is_cached_as_a_tuple(self):
        for bk, f in ((Q, 360), (ARCHIMEDEAN, 84), (F3, F3.mul(T, F3.mul(T, T_PLUS_1)))):
            factors = bk.factor(f)
            assert isinstance(factors, tuple) and bk.factor(f) is factors

    def test_distinct_levels_and_backends_do_not_share_entries(self):
        assert len(fiber_map(Q, 2, 8)) == 4 and len(fiber_map(Q, 2, 4)) == 2
        assert len(fiber_map(Q, 4, 8)) == 2
        for bk in (F2, F3):  # the unit level has the same ideal key in both
            assert {xi.backend_key for xi in xi_classes(bk, bk.one)} == {bk.key}


class TestGfGroup:
    def test_order_phi_12(self):
        assert len(gf_group(Q, 12)) == 4

    def test_ff_t_units(self):
        assert len(gf_group(F3, T)) == 2

    def test_unit_level_trivial(self):
        assert len(gf_group(Q, 1)) == 1
        assert len(gf_group(F3, F3.one)) == 1

    def test_generators_generate(self):
        for f in (8, 12, 15, 16, 105):
            g = gf_group(Q, f)
            gens = [s.residue for s in g.generators()]
            # the closure by residue products, independent of the index maps
            have = frontier = {g.identity.residue}
            while frontier:
                frontier = {a * s % f for a in frontier for s in gens} - have
                have = have | frontier
            assert have == {e.residue for e in g}

    def test_reduction_map(self):
        g12 = gf_group(Q, 12)
        x = g12.element(7)
        assert g12.reduce_to(x, 4).residue == 3

    def test_action(self):
        g12 = gf_group(Q, 12)
        xi = xi_from_fraction(Q, 1, 12)
        assert g_action(Q, g12.element(5), xi) == xi_from_fraction(Q, 5, 12)

    def test_ff_action(self):
        gt = gf_group(F3, T)
        xi = xi_from_fraction(F3, (1,), T)
        assert g_action(F3, gt.element((2,)), xi) == xi_from_fraction(F3, (2,), T)

    def test_exact_order_strata_partition_the_level(self):
        # Xi(f) splits along exact orders g | f into single orbits of size |G_g|
        for f in (8, 12, 30):
            classes = xi_classes(Q, f)
            by_order = {}
            for cls in classes:
                by_order.setdefault(cls.order, []).append(cls)
            assert sorted(by_order) == Q.divisors(f)
            for g, stratum in by_order.items():
                assert len(stratum) == len(gf_group(Q, g))
            assert sum(len(s) for s in by_order.values()) == len(classes) == f

    def test_orbit_is_torsor(self):
        # Xi^x(f) is a single orbit with trivial isotropy
        for f in (4, 5, 9, 12):
            group = gf_group(Q, f)
            base = xi_from_fraction(Q, 1, f)
            orbit = {g_action(Q, s, base) for s in group}
            exact = [xi for xi in xi_classes(Q, f) if xi.order == f]
            assert len(orbit) == len(group) == len(exact)
            assert orbit == set(exact)

    def test_equivariance_exhaustive(self):
        # Y_g commutes with the group action at small levels
        for f in (6, 8, 12):
            group = gf_group(Q, f)
            for g in (2, 3):
                for s in group:
                    for xi in xi_classes(Q, f):
                        assert y_map(Q, g, g_action(Q, s, xi)) == g_action(
                            Q, s, y_map(Q, g, xi)
                        )


class TestSignGroup:
    def test_archimedean_negation(self):
        sg = sign_group(Q, 3)
        assert sg.order == 2
        assert sign_action(Q, xi_from_fraction(Q, 1, 3)) == xi_from_fraction(Q, 2, 3)
        assert g_action(Q, sg.gamma, xi_from_fraction(Q, 1, 3)) == xi_from_fraction(Q, 2, 3)

    def test_ff_q3(self):
        sg = sign_group(F3, T)
        assert sg.order == 2
        assert sign_action(F3, xi_from_fraction(F3, (1,), T)) == xi_from_fraction(F3, (2,), T)

    def test_ff_q2_trivial(self):
        sg = sign_group(F2, T)
        assert sg.order == 1
        xi = xi_from_fraction(F2, (1,), T)
        assert sign_action(F2, xi) == xi

    def test_action_order(self):
        # applying the sign action m times is the identity, and the fixed
        # classes are exactly those killed by (scalar - 1) on numerators
        for f in (5, 7, 12):
            m = Q.sign_order
            for xi in xi_classes(Q, f):
                out = xi
                for _ in range(m):
                    out = sign_action(Q, out)
                assert out == xi
        for xi in xi_classes(Q, 12):
            fixed = sign_action(Q, xi) == xi
            kills = (-1 - 1) * xi.num % xi.order == 0 if xi.order > 1 else True
            assert fixed == kills

    def test_ff_sign_order_q5(self):
        f5_backend = FunctionFieldBackend(5)
        sg = sign_group(f5_backend, T)
        assert sg.order == 4

    def test_ff_sign_action_has_exact_order(self):
        # the orbit of a unit class under the sign action has length q - 1
        f5_backend = FunctionFieldBackend(5)
        level = f5_backend.mul(T, T)
        xi = xi_from_fraction(f5_backend, (1,), level)
        orbit = [xi]
        current = sign_action(f5_backend, xi)
        while current != xi:
            orbit.append(current)
            current = sign_action(f5_backend, current)
        assert len(orbit) == 4


def test_backend_factory():
    assert backend("q").kind == "archimedean"
    # one archimedean backend, so every caller shares its factor cache
    assert backend("q") is backend("archimedean") is ARCHIMEDEAN
    assert backend("fq", 3).q == 3
    with pytest.raises(ValueError):
        backend("fq")


def test_poly_deg():
    assert poly_deg(()) == -1
    assert poly_deg(T) == 1


# Coefficient-wise reference kernels: one ``fq`` method call per coefficient
# step, as the table-driven kernels of uod.arith replace them.


def ref_add(fq, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim(fq.add(x, y) for x, y in zip(a, b))


def ref_mul(fq, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return poly_trim(out)


def ref_divmod(fq, a, b):
    a = list(a)
    inv_lead = fq.inv(b[-1])
    out = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        q = fq.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        if q:
            out[shift] = q
            for i, c in enumerate(b):
                a[shift + i] = fq.add(a[shift + i], fq.neg(fq.mul(q, c)))
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < len(b) - 1:
            break
    return poly_trim(out), poly_trim(a)


@st.composite
def poly_cases(draw):
    """A field size, a polynomial a (possibly zero) and a nonzero divisor b,
    monic or not, sometimes of higher degree than a."""
    q = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    coeff = st.integers(0, q - 1)
    a = poly_trim(draw(st.lists(coeff, max_size=9)))
    lead = draw(st.just(1) | st.integers(1, q - 1))
    b = tuple(draw(st.lists(coeff, max_size=6))) + (lead,)
    return fq_table(q), a, b


class TestPolynomialKernels:
    @settings(max_examples=300, deadline=None)
    @given(poly_cases())
    def test_kernels_match_the_coefficientwise_reference(self, case):
        fq, a, b = case
        assert poly_add(fq, a, b) == ref_add(fq, a, b)
        assert poly_add(fq, a, tuple(fq.neg(x) for x in a)) == ()  # a - a
        assert poly_mul(fq, a, b) == ref_mul(fq, a, b)
        want = ref_divmod(fq, a, b)
        assert poly_divmod(fq, a, b) == want
        quo, rem = want
        assert poly_add(fq, poly_mul(fq, quo, b), rem) == a
        assert poly_deg(rem) < poly_deg(b)

    def test_lower_degree_dividend_is_its_own_remainder(self):
        fq = fq_table(5)
        assert poly_divmod(fq, (3, 4), (1, 2, 3)) == ((), (3, 4))
        assert poly_divmod(fq, (), (2,)) == ((), ())

    def test_memo_tells_fields_apart(self):
        # the same tuples divide differently over F_3, F_4 and F_5
        a, b = (1, 2, 2, 1), (2, 1)
        for q in (3, 4, 5, 3, 5, 4):
            fq = fq_table(q)
            assert poly_divmod(fq, a, b) == ref_divmod(fq, a, b)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(fq_table(3), (1,), ())
