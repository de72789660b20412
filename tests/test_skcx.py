from dataclasses import dataclass

import pytest

from dense_reference import (
    IntMatrix,
    PresentedComplex,
    checked_induce,
    dense,
    sign_action_trivial_on_via_n,
    sk_inclusion_check,
    skprime_layout,
    via_skprime_complex,
)
from uod import chainkit, cli, skcx
from uod.chainkit import (
    MapOperator,
    NonCommutingOperators,
    PlusMinusNotZero,
    WindowTooSmall,
    build_kt,
)
from uod.arith import ARCHIMEDEAN, xi_from_fraction
from uod.cli import main
from uod.distmod import BasisCertificateFailed, depth
from uod.skcx import (
    NotSquarefree,
    build_sk,
    distribution_presentation,
    sk_quotients_homology,
    via_n_homology,
    via_skprime_homology,
)
from uod.signh import OrderViolation
from uod.znf import AbGroupInvariants, FreeQuotient, InducedOperatorUndefined, SparseMatrix

Z2 = AbGroupInvariants(0, (2,))


def squarefree(n):
    return all(n % (p * p) for p in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class SkSymbol:
    numerator: int       # over the fixed denominator f^N
    divisor: int         # squarefree g | f
    degree: int


# The symbol formulas of the skcx module docstring, symbol by symbol: the
# reference that the blocks of ``build_sk`` are held to.

def symbols(sk, m, n):
    return [SkSymbol(a, g, n) for g in sk.divisors_by_size[m] for a in range(sk.denominator)]


def index_of(sk, sym):
    m = sum(1 for p in sk.primes if sym.divisor % p == 0)
    return sk.divisors_by_size[m].index(sym.divisor) * sk.denominator + sym.numerator


def delta_symbol(sk, sym):
    m = sum(1 for p in sk.primes if sym.divisor % p == 0)
    sign = -1 if m % 2 else 1
    out = {}
    down = SkSymbol(sym.numerator, sym.divisor, sym.degree - 1)
    out[down] = out.get(down, 0) + sign
    mirrored = SkSymbol((-sym.numerator) % sk.denominator, sym.divisor, sym.degree - 1)
    parity = 1 if sym.degree % 2 == 0 else -1
    out[mirrored] = out.get(mirrored, 0) + sign * parity
    return {k: v for k, v in out.items() if v}


def partial_symbol(sk, sym):
    out = {}
    primes = [p for p in sk.primes if sym.divisor % p == 0]
    for i, p in enumerate(primes):
        sign = -1 if i % 2 else 1
        smaller = sym.divisor // p
        keep = SkSymbol(sym.numerator, smaller, sym.degree)
        out[keep] = out.get(keep, 0) + sign
        if sym.numerator % p == 0:
            for j in range(p):
                b = (sym.numerator + j * sk.denominator) // p
                pre = SkSymbol(b, smaller, sym.degree)
                out[pre] = out.get(pre, 0) - sign
    return {k: v for k, v in out.items() if v}


def column_of(sk, formula):
    """A symbol formula as a sparse column dict of the blocks."""
    col = {}
    for target, coeff in formula.items():
        i = index_of(sk, target)
        col[i] = col.get(i, 0) + coeff
    return {i: v for i, v in col.items() if v}


def symbol_double_complex(sk):
    """``build_kt`` of the module of ``build_sk``: the symbol double complex."""
    return build_kt(sk.module, [f"T{p}" for p in sk.primes], "plus", "minus", sk.window)


def dense_via_n_reference(sk):
    """The boundary quotient as a presented complex on all numerators, with
    the dense relations and the dense 1 +- neg: its homology is the exact
    subquotient formula on the Hermite bases, independent of the peel."""
    lo, hi = sk.window
    denom = sk.denominator
    rel = dense(distribution_presentation(sk))
    neg = IntMatrix.from_columns(
        [[1 if i == (-a) % denom else 0 for i in range(denom)] for a in range(denom)]
    )
    ident = IntMatrix.identity(denom)
    even, odd = ident + neg, ident - neg
    ranks = {n: denom for n in range(lo, hi + 1)}
    rels = {n: rel for n in range(lo, hi + 1)}
    diff = {n: even if n % 2 == 0 else odd for n in range(lo + 1, hi + 1)}
    return PresentedComplex(ranks, rels, diff, stable=(lo + 1, hi - 1))


class TestBuildSk:
    def test_symbol_counts_f3(self):
        sk = build_sk(3, 1, window=(-5, 5))
        kt = symbol_double_complex(sk)
        # numerators over 3, divisors {1, 3}, eleven window degrees
        assert kt.window == sk.window == (-5, 5)
        assert kt.rank(0) == 3
        assert kt.rank(1) == 3
        total = sum(kt.rank(m) for m in (0, 1) for n in range(-5, 6))
        assert total == 3 * 2 * 11

    def test_delta_formula(self):
        sk = build_sk(3, 1, window=(-5, 5))
        out = delta_symbol(sk, SkSymbol(1, 1, 0))
        assert out == {SkSymbol(1, 1, -1): 1, SkSymbol(2, 1, -1): 1}

    def test_delta_odd_degree(self):
        sk = build_sk(3, 1, window=(-5, 5))
        out = delta_symbol(sk, SkSymbol(1, 1, 1))
        assert out == {SkSymbol(1, 1, 0): 1, SkSymbol(2, 1, 0): -1}

    def test_partial_formula_zero_numerator(self):
        sk = build_sk(3, 1, window=(-5, 5))
        # [0,3,n]: the kept term cancels against the b = 0 preimage
        out = partial_symbol(sk, SkSymbol(0, 3, 0))
        assert out == {SkSymbol(1, 1, 0): -1, SkSymbol(2, 1, 0): -1}

    def test_partial_drops_escaping_preimages(self):
        sk = build_sk(3, 1, window=(-5, 5))
        # numerator 1 is not divisible by 3, so the whole fiber escapes
        out = partial_symbol(sk, SkSymbol(1, 3, 0))
        assert out == {SkSymbol(1, 1, 0): 1}

    # at 330 the subset order of the pairs (6, 10, 22, 15, 33, 55) is not
    # the sorted divisor order
    @pytest.mark.parametrize("f, level", [(15, 1), (15, 2), (330, 1)])
    def test_matrices_match_symbol_formulas(self, f, level):
        sk = build_sk(f, level)
        kt = symbol_double_complex(sk)
        if f == 330:
            assert sk.divisors_by_size[2] == [6, 10, 22, 15, 33, 55]
        for m, n in ((1, 0), (2, 0), (2, 3)):
            mat = kt.horizontal[m]
            vmat = kt.even[m] if n % 2 == 0 else kt.odd[m]
            for sym in symbols(sk, m, n):
                j = index_of(sk, sym)
                assert mat.entries[j] == column_of(sk, partial_symbol(sk, sym)), sym
                assert vmat.entries[j] == column_of(sk, delta_symbol(sk, sym)), sym

    def test_distribution_presentation_is_the_prime_boundaries(self):
        # the columns of T_p at the multiples of p are the boundaries of the
        # symbols [a, p, n] with p | a, whose fibers stay at this level
        sk = build_sk(15, 2)
        expected = [column_of(sk, partial_symbol(sk, SkSymbol(a, p, 0)))
                    for p in sk.primes for a in range(0, sk.denominator, p)]
        assert list(distribution_presentation(sk).entries) == expected

    @pytest.mark.parametrize("f, level", [(f, 1) for f in range(2, 71) if squarefree(f)]
                             + [(f, n) for f in (3, 15, 35) for n in (2, 3)])
    def test_distribution_presentation_is_read_off_the_maps(self, f, level):
        # the fibers of each map against the columns of its full matrix
        sk = build_sk(f, level)
        expected = [col for name, p in zip(skcx._ideal_names(sk.primes), sk.primes)
                    for col in sk.module.operator(name).entries[::p]]
        assert list(distribution_presentation(sk).entries) == expected

    def test_distribution_presentation_keeps_the_shared_position_ints(self):
        # every row index is one of the module's position ints, not a fresh
        # int per entry, which at f^N ~ 10^6 is what the relations hold
        sk = build_sk(35, 2)
        positions = sk.module._positions
        rel = distribution_presentation(sk)
        assert all(i is positions[i] for col in rel.entries for i in col)

    def test_the_symbol_routes_build_no_operator_matrix(self, monkeypatch):
        # the 1 x 1 scalars of scalar_kt are still read as matrices
        sk = build_sk(15, 2)
        real = MapOperator.matrix

        def refuse(op, *args):
            assert op not in sk.module.maps.values(), "a symbol operator's matrix was built"
            return real(op, *args)

        monkeypatch.setattr(MapOperator, "matrix", refuse)
        distribution_presentation(sk)
        via_skprime_homology(sk)

    def test_a_noncommuting_pair_is_refused(self, monkeypatch):
        # the map of T_3 with one moved image, 1 -> 4 instead of 3, no longer
        # commutes with neg: -4 = 11, but the image of -1 = 14 is 12
        real = skcx._fiber_operator

        def broken(p, denom):
            op = real(p, denom)
            if p != 3:
                return op
            return MapOperator((op.images[0], 4, *op.images[2:]), shift=1, scale=-1)

        monkeypatch.setattr(skcx, "_fiber_operator", broken)
        with pytest.raises(NonCommutingOperators):
            build_sk(15, 1)

    def test_a_neg_that_is_not_an_involution_is_refused(self, monkeypatch):
        # b -> 2b mod 15 commutes with every b -> pb, so the commutation
        # certificate passes, but its square b -> 4b is not the identity
        double = tuple(2 * b % 15 for b in range(15))
        monkeypatch.setattr(skcx, "_sign_differentials", lambda denom: (
            MapOperator(double, shift=1), MapOperator(double, shift=1, scale=-1)))
        with pytest.raises(PlusMinusNotZero):
            build_sk(15, 1)

    def test_the_operators_are_their_maps_matrices(self):
        sk = build_sk(15, 2)
        for name, op in sk.module.maps.items():
            assert sk.module.operator(name) == op.matrix()
        plus, minus = sk.module.operator("plus"), sk.module.operator("minus")
        assert (plus * minus).is_zero()

    def test_plus_minus_not_zero_is_refused(self, monkeypatch):
        # plus paired with itself still commutes with every T_p, so the
        # commutation certificate passes and plus * minus = 0 must catch it
        real = skcx._sign_differentials
        monkeypatch.setattr(skcx, "_sign_differentials", lambda denom: (real(denom)[0],) * 2)
        with pytest.raises(PlusMinusNotZero):
            build_sk(15, 1)

    def test_window_narrower_than_2r_plus_4_is_refused(self):
        # r = 2 at f = 15: eight degrees pass, seven do not
        assert build_sk(15, 1, window=(-3, 4)).window == (-3, 4)
        with pytest.raises(WindowTooSmall, match="shorter than 8"):
            build_sk(15, 1, window=(-3, 3))

    def test_builds_no_double_complex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_sk built a double complex")

        monkeypatch.setattr(chainkit, "DoubleComplex", refuse)
        sk = build_sk(15, 2)
        assert sk.module.rank == 225 and sk.window == (-5, 5)

    def test_rejects_bad_levels(self):
        with pytest.raises(NotSquarefree):
            build_sk(4, 1)
        with pytest.raises(NotSquarefree):
            build_sk(1, 1)
        with pytest.raises(WindowTooSmall):
            build_sk(3, 1, window=(-1, 1))


class TestQuotientRoutes:
    def test_f3_three_way(self):
        sk = build_sk(3, 1)
        cmp = sk_quotients_homology(sk)
        assert cmp.agree
        assert cmp.kt.constant_value() == Z2
        assert cmp.via_n.constant_value() == Z2

    def test_f3_level_2(self):
        sk = build_sk(3, 2)
        cmp = sk_quotients_homology(sk)
        assert cmp.agree and cmp.via_n.constant_value() == Z2

    def test_via_skprime_ranks_are_binomial(self):
        sk = build_sk(15, 1)
        total, layout = via_skprime_complex(sk), skprime_layout(sk)
        # at a deep interior degree all rows contribute: 1 + 2 + 1
        mid = 0
        assert total.rank(mid) == 4
        assert len(layout[mid]) == 4

    def test_via_skprime_is_the_kt_reference_reduced_once(self, monkeypatch):
        # the numerator-killed scalars are ([0] * r, 2, 0): the KT
        # reference's own data, so both read one memoised table
        sk = build_sk(15, 2)
        assert via_skprime_homology(sk) is chainkit.scalar_kt([0, 0], 2, 0, sk.window)
        reductions = []
        real = chainkit.rank_torsion
        monkeypatch.setattr(chainkit, "rank_torsion", lambda m: reductions.append(m) or real(m))
        cmp = sk_quotients_homology(sk)
        assert cmp.via_skprime is cmp.kt
        assert len(reductions) == len(set(reductions))

    def test_sk_compare_builds_each_scalar_kt_key_once(self, monkeypatch, capsys):
        keys = []
        real = chainkit.build_kt

        def spy(module, names, plus, minus, window=None):
            scalars = tuple(module.maps[n].shift + module.maps[n].scale
                            for n in (*names, plus, minus))
            keys.append((scalars, window))
            return real(module, names, plus, minus, window)

        monkeypatch.setattr(chainkit, "build_kt", spy)
        assert main(["sk", "compare", "--f", "35", "--level", "3"]) == 0
        capsys.readouterr()
        # three levels, each with the numerator-killed route and the KT
        # reference, on one (scalars, window)
        assert [scalars for scalars, _ in keys] == [(0, 0, 2, 0)]

    def test_via_n_matches_direct_sign_homology(self):
        from uod.arith import ArchimedeanBackend
        from uod.signh import sign_homology_U

        for f in (3, 15):
            sk = build_sk(f, 1)
            table = via_n_homology(sk)
            direct = sign_homology_U(ArchimedeanBackend(), f)
            assert table.agrees_with(direct)

    def test_sign_action_trivial(self):
        sk = build_sk(15, 1)
        trivial, total = sign_action_trivial_on_via_n(sk)
        assert trivial == total

    def test_a_row_0_entry_off_column_0_exits_3(self, monkeypatch, capsys):
        # T_3's map moved to send 0 to 5, past the commutation certificate,
        # so that T_3 sends numerator 5 to numerator 0: the symbols with
        # nonzero numerator no longer span a subcomplex, so the numerator-0
        # entries are no quotient complex
        def mutated(sk):
            t3 = sk.module.maps["T3"]
            images = (5,) + t3.images[1:]
            sk.module.maps["T3"] = MapOperator(images, t3.nu, t3.shift, t3.scale)
            assert sk.module.operator("T3").entries[5].get(0)
            return sk

        with pytest.raises(BasisCertificateFailed, match="numerator 0"):
            via_skprime_homology(mutated(build_sk(15, 1)))
        real = cli.build_sk
        monkeypatch.setattr(cli, "build_sk", lambda *args: mutated(real(*args)))
        assert main(["sk", "compare", "--f", "15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal check failed: T3 sends a nonzero numerator")


class TestViaNPeel:
    @pytest.mark.parametrize("f, level", [(f, 1) for f in range(2, 71) if squarefree(f)]
                             + [(f, 2) for f in range(2, 16) if squarefree(f)])
    def test_matches_the_dense_presented_complex(self, f, level):
        sk = build_sk(f, level)
        table = via_n_homology(sk)
        assert table == dense_via_n_reference(sk).homology()

    @pytest.mark.parametrize("denoms", [range(1, 301), (15**3, 35**2, 105**2)])
    def test_depth_zero_numerators_are_the_per_numerator_depths(self, denoms):
        # the divisor-block reading against each numerator's class in
        # lowest terms and its depth
        for denom in denoms:
            assert skcx.depth_zero_numerators(denom) == [
                a for a in range(denom)
                if depth(ARCHIMEDEAN, xi_from_fraction(ARCHIMEDEAN, a, denom)) == 0
            ], denom

    def test_differentials_are_sparse_on_the_depth_zero_numerators(self):
        # the differentials are 1 +- gamma, with gamma induced on the k
        # depth-zero numerators
        sk = build_sk(15, 2)
        quotient, neg = skcx._via_n_quotient(sk)
        gamma = quotient.induce_preserving(neg.matrix())
        keep = skcx.depth_zero_numerators(sk.denominator)
        assert isinstance(gamma, SparseMatrix)
        assert gamma.rows == gamma.cols == len(keep)
        assert set(via_n_homology(sk).entries) == set(range(sk.window[0], sk.window[1] + 1))

    def test_the_sign_pair_is_induced_with_no_product_against_the_relations(self, monkeypatch):
        sk = build_sk(15, 2)
        rel = distribution_presentation(sk)
        mul = SparseMatrix.__mul__

        def spy(a, b):
            assert b != rel, "a product against the relations"
            return mul(a, b)

        monkeypatch.setattr(SparseMatrix, "__mul__", spy)
        quotient, neg = skcx._via_n_quotient(sk)
        via_n_homology(sk)
        monkeypatch.undo()
        # P S = 1, so the sign pair induces 1 + gamma and 2 - (1 + gamma)
        gamma = quotient.induce_preserving(neg.matrix())
        one = SparseMatrix.identity(gamma.rows)
        assert one + gamma == checked_induce(quotient, sk.module.operator("plus"))
        assert one - gamma == checked_induce(quotient, sk.module.operator("minus"))

    def test_one_operator_is_induced(self, monkeypatch):
        sk = build_sk(15, 2)
        induced = []
        real = FreeQuotient.induce_preserving

        def spy(quotient, op):
            induced.append(op)
            return real(quotient, op)

        monkeypatch.setattr(FreeQuotient, "induce_preserving", spy)
        skcx._via_n_quotient(sk)
        assert induced == []
        # the norm 1 + gamma, whose count mod 2 also serves 1 - gamma
        via_n_homology(sk)
        assert len(induced) == 1

    def test_an_induced_gamma_off_order_two_is_refused(self, monkeypatch):
        # neg's map changed past build_sk: on 1, 2 and 4 into a cycle of
        # length 6, and at 0 into a map that is not injective.  Either way
        # gamma^2 = 1, and so d o d = 0, has no certificate, and the walk
        # over neg's cycles refuses it
        real = skcx._via_n_quotient
        sk = build_sk(15, 2)
        y = sk.module.maps["plus"].images
        six_cycle = {1: y[2], 2: y[4], 4: y[1]}
        for change, message in ((six_cycle, "length 6, which does not divide 2"),
                                ({0: y[1]}, "not a permutation")):
            def mutated(sk, change=change):
                quotient, neg = real(sk)
                images = list(neg.images)
                for a, b in change.items():
                    images[a] = b
                return quotient, MapOperator(tuple(images))

            monkeypatch.setattr(skcx, "_via_n_quotient", mutated)
            with pytest.raises(OrderViolation, match=message):
                via_n_homology(sk)

    @pytest.mark.parametrize("name", ["plus", "minus"])
    def test_a_neg_that_moves_a_multiple_off_is_refused(self, name):
        # a module whose neg sends 3, a multiple of 3, to 4: (1 +- neg) T_3 e_3
        # is then no longer a combination of the relations
        sk = build_sk(15, 1)
        op = sk.module.maps[name]
        images = list(op.images)
        images[3] = 4
        sk.module.maps[name] = MapOperator(tuple(images), shift=op.shift, scale=op.scale)
        with pytest.raises(InducedOperatorUndefined, match=name):
            skcx._via_n_quotient(sk)

    def test_an_operator_that_breaks_the_relations_is_refused(self):
        sk = build_sk(15, 1)
        quotient, _ = skcx._via_n_quotient(sk)
        # swapping numerators 1 and 2 sends the 3-boundary of 0, which
        # meets 0, 5 and 10 only, to itself, but not the 5-boundary of 5
        swap = SparseMatrix(15, [{a: 1} for a in (0, 2, 1, *range(3, 15))])
        with pytest.raises(InducedOperatorUndefined):
            checked_induce(quotient, swap)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_a_wrong_keep_set_exits_3_and_never_fails(self, monkeypatch, capsys, change):
        real = skcx.depth_zero_numerators

        def wrong(denom):
            keep = real(denom)
            if change == "drop":
                return keep[1:]
            return keep + [min(set(range(denom)) - set(keep))]

        monkeypatch.setattr(skcx, "depth_zero_numerators", wrong)
        assert main(["sk", "compare", "--f", "15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal check failed: the boundary relations")


class TestInclusion:
    def test_3_into_15(self):
        report = sk_inclusion_check(3, 15, 1)
        assert report.injective
        # corank grows: source Z/2, target (Z/2)^2 at every compared degree
        for src, dst, ker in report.degrees.values():
            assert src == Z2
            assert dst == AbGroupInvariants(0, (2, 2))
            assert ker.is_trivial

    def test_self_inclusion(self):
        report = sk_inclusion_check(3, 3, 1)
        assert report.injective

    def test_5_into_15(self):
        report = sk_inclusion_check(5, 15, 1)
        assert report.injective
