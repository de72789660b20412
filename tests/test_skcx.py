import pytest

from uod import skcx
from uod.chainkit import PresentedComplex, WindowTooSmall
from uod.cli import main
from uod.skcx import (
    NotSquarefree,
    SkSymbol,
    build_sk,
    distribution_presentation,
    sign_action_trivial_on_via_n,
    sk_inclusion_check,
    sk_quotients_homology,
    via_n_complex,
    via_skprime_complex,
)
from uod.znf import AbGroupInvariants, InducedOperatorUndefined, IntMatrix, SparseMatrix

Z2 = AbGroupInvariants(0, (2,))


def squarefree(n):
    return all(n % (p * p) for p in range(2, int(n**0.5) + 1))


def dense_via_n_reference(sk):
    """The boundary quotient as a presented complex on all numerators, with
    the dense relations and the dense 1 +- neg: its homology is the exact
    subquotient formula on the Hermite bases, independent of the peel."""
    lo, hi = sk.window
    denom = sk.denominator
    rel = distribution_presentation(sk).dense()
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
        # numerators over 3, divisors {1, 3}, eleven window degrees
        assert sk.double.rank(0, 0) == 3
        assert sk.double.rank(1, 0) == 3
        total = sum(sk.double.rank(m, n) for m in (0, 1) for n in range(-5, 6))
        assert total == 3 * 2 * 11

    def test_delta_formula(self):
        sk = build_sk(3, 1, window=(-5, 5))
        out = sk.delta_symbol(SkSymbol(1, 1, 0))
        assert out == {SkSymbol(1, 1, -1): 1, SkSymbol(2, 1, -1): 1}

    def test_delta_odd_degree(self):
        sk = build_sk(3, 1, window=(-5, 5))
        out = sk.delta_symbol(SkSymbol(1, 1, 1))
        assert out == {SkSymbol(1, 1, 0): 1, SkSymbol(2, 1, 0): -1}

    def test_partial_formula_zero_numerator(self):
        sk = build_sk(3, 1, window=(-5, 5))
        # [0,3,n]: the kept term cancels against the b = 0 preimage
        out = sk.partial_symbol(SkSymbol(0, 3, 0))
        assert out == {SkSymbol(1, 1, 0): -1, SkSymbol(2, 1, 0): -1}

    def test_partial_drops_escaping_preimages(self):
        sk = build_sk(3, 1, window=(-5, 5))
        # numerator 1 is not divisible by 3, so the whole fiber escapes
        out = sk.partial_symbol(SkSymbol(1, 3, 0))
        assert out == {SkSymbol(1, 1, 0): 1}

    def test_matrices_match_symbol_formulas(self):
        sk = build_sk(15, 1, window=(-6, 6))
        for m, n in ((1, 0), (2, 0), (2, 3)):
            mat = sk.double.horizontal(m, n)
            for sym in sk.symbols(m, n):
                col = mat.column(sk.index_of(sym))
                expected = [0] * mat.rows
                for target, coeff in sk.partial_symbol(sym).items():
                    expected[sk.index_of(target)] += coeff
                assert list(col) == expected, sym
            vmat = sk.double.vertical(m, n)
            for sym in sk.symbols(m, n):
                col = vmat.column(sk.index_of(sym))
                expected = [0] * vmat.rows
                for target, coeff in sk.delta_symbol(sym).items():
                    expected[sk.index_of(target)] += coeff
                assert list(col) == expected, sym

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
        total, layout = via_skprime_complex(sk)
        # at a deep interior degree all rows contribute: 1 + 2 + 1
        mid = 0
        assert total.rank(mid) == 4
        assert len(layout[mid]) == 4

    def test_via_n_matches_direct_sign_homology(self):
        from uod.arith import ArchimedeanBackend
        from uod.signh import sign_homology_U

        for f in (3, 15):
            sk = build_sk(f, 1)
            table = via_n_complex(sk).homology()
            direct = sign_homology_U(ArchimedeanBackend(), f)
            assert table.agrees_with(direct)

    def test_sign_action_trivial(self):
        sk = build_sk(15, 1)
        trivial, total = sign_action_trivial_on_via_n(sk)
        assert trivial == total


class TestViaNPeel:
    @pytest.mark.parametrize("f, level", [(f, 1) for f in range(2, 71) if squarefree(f)]
                             + [(f, 2) for f in range(2, 16) if squarefree(f)])
    def test_matches_the_dense_presented_complex(self, f, level):
        sk = build_sk(f, level)
        table = via_n_complex(sk).homology()
        assert table == dense_via_n_reference(sk).homology()

    def test_differentials_are_sparse_on_the_depth_zero_numerators(self):
        sk = build_sk(15, 2)
        c = via_n_complex(sk)
        keep = skcx.depth_zero_numerators(sk.denominator)
        assert all(isinstance(d, SparseMatrix) for d in c.diff.values())
        assert {c.rank(n) for n in c.degrees()} == {len(keep)}

    def test_an_operator_that_breaks_the_relations_is_refused(self):
        sk = build_sk(15, 1)
        quotient, _, _ = skcx._via_n_quotient(sk)
        # swapping numerators 1 and 2 sends the 3-boundary of 0, which
        # meets 0, 5 and 10 only, to itself, but not the 5-boundary of 5
        swap = SparseMatrix(15, [{a: 1} for a in (0, 2, 1, *range(3, 15))])
        with pytest.raises(InducedOperatorUndefined):
            quotient.induce(swap)

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
