import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    PresentedComplex,
    block_diagonal,
    functoriality_report,
    rank_torsion_tate_pair,
    tate_cycles,
)
from uod import signh, znf
from uod.arith import ArchimedeanBackend, FunctionFieldBackend
from uod.distmod import build_af, distribution_relations, u_module
from uod.signh import (
    OrderViolation,
    involution_rank_torsion,
    norm_matrix,
    sign_homology_U,
    tate_pair,
    verify_rank_theorem,
)
from uod.znf import AbGroupInvariants, IntMatrix, SparseMatrix, rank_torsion

Q = ArchimedeanBackend()
F3 = FunctionFieldBackend(3)
F2 = FunctionFieldBackend(2)
F5 = FunctionFieldBackend(5)
F7 = FunctionFieldBackend(7)
F9 = FunctionFieldBackend(9)
T = (0, 1)

Z2 = AbGroupInvariants(0, (2,))
TRIV = AbGroupInvariants(0)


def _cycle(length, sign=1):
    """Permutation matrix of an l-cycle, with one entry negated when sign is -1
    (then its order is 2l)."""
    cols = [[int(i == (j + 1) % length) for i in range(length)] for j in range(length)]
    cols[-1][0] *= sign
    return IntMatrix.from_columns(cols)


def _sparse_cycle(length):
    """The l-cycle e_j -> e_(j+1 mod l), as a ``SparseMatrix``."""
    return SparseMatrix(length, [{(j + 1) % length: 1} for j in range(length)])


def _dense_power(m, k):
    out = IntMatrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def _conjugate(draw, gamma):
    """gamma conjugated by a product of up to four elementary matrices."""
    n = gamma.rows
    for i, j, c in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1, -1, 2])),
            max_size=4)):
        if i == j:
            continue
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        gamma = IntMatrix(e) * gamma * IntMatrix(e_inv)
    return gamma


def _count_products(monkeypatch) -> list:
    """Spy on ``SparseMatrix.__mul__``: the list grows by one per product."""
    products = []
    real = SparseMatrix.__mul__

    def spy(a, b):
        products.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", spy)
    return products


# companion matrices of the cyclotomic polynomials of orders 3, 4 and 6
_CYCLOTOMIC = {3: IntMatrix([[0, -1], [1, -1]]), 4: IntMatrix([[0, -1], [1, 0]]),
               6: IntMatrix([[0, -1], [1, 1]])}


@st.composite
def finite_order_actions(draw):
    """(gamma, m) with gamma^m = 1 for m = 2 or m = q - 1 with q a prime power
    up to 9: blocks of cycles, sign-twisted cycles and cyclotomic companions
    whose orders divide m, conjugated by a product of elementary matrices."""
    m = draw(st.sampled_from([2, 3, 4, 6, 7, 8]))
    choices = [_cycle(l) for l in range(1, m + 1) if m % l == 0 and l <= 4]
    choices += [_cycle(l, -1) for l in range(1, m + 1) if m % (2 * l) == 0 and l <= 4]
    choices += [c for d, c in _CYCLOTOMIC.items() if m % d == 0]
    gamma = block_diagonal(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3)))
    return _conjugate(draw, gamma), m


# the signed permutations of order dividing 2, block by block: 1, the sign,
# the swap and the negated swap
_INVOLUTION_BLOCKS = [IntMatrix([[1]]), IntMatrix([[-1]]), _cycle(2), -_cycle(2)]


@st.composite
def involutions(draw):
    """An involution of Z^n, n <= 12: a signed permutation of order
    dividing 2, conjugated by a product of elementary matrices."""
    blocks = draw(st.lists(st.sampled_from(_INVOLUTION_BLOCKS), min_size=1, max_size=12))
    while sum(b.rows for b in blocks) > 12:
        blocks.pop()
    return _conjugate(draw, block_diagonal(blocks))


class TestTate:
    def test_trivial_z(self):
        even, odd = tate_pair(IntMatrix.identity(1), 2)
        assert even == Z2 and odd == TRIV

    def test_swap_module_vanishes(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        even, odd = tate_pair(swap, 2)
        assert even == TRIV and odd == TRIV

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            tate_pair(IntMatrix([[2]]), 2)

    @pytest.mark.parametrize("m, length", [(2, 3), (2, 4), (6, 4), (6, 5)])
    def test_sparse_order_violation(self, m, length):
        # a sparse cycle whose length does not divide m
        with pytest.raises(OrderViolation, match=f"gamma\\^{m} is not the identity"):
            norm_matrix(_sparse_cycle(length), m)

    @pytest.mark.parametrize("m, length", [(2, 2), (6, 2), (6, 3), (6, 6)])
    def test_norm_is_the_sum_of_the_powers(self, m, length):
        gamma = _sparse_cycle(length)
        want = sum((_dense_power(gamma.dense(), k) for k in range(m)),
                   IntMatrix.zeros(length, length))
        assert norm_matrix(gamma, m).dense() == want

    @pytest.mark.parametrize("gamma, m", [
        pytest.param(SparseMatrix.identity(3), 2, id="identity-2"),
        pytest.param(_sparse_cycle(2), 2, id="swap-2"),
        pytest.param(_sparse_cycle(6), 6, id="6-cycle-6"),
        pytest.param(_sparse_cycle(3), 6, id="3-cycle-6"),
    ])
    def test_one_power_chain(self, monkeypatch, gamma, m):
        # the norm and the order certificate share one chain of m - 1 products
        products = _count_products(monkeypatch)
        tate_pair(gamma, m)
        assert len(products) == m - 1

    def test_one_power_chain_on_u(self, monkeypatch):
        # U(T^2 + T) over F_7, whose sign group has order 6
        gamma = u_module(build_af(F7, F7.mul(T, (1, 1)))).operator("gamma0")
        products = _count_products(monkeypatch)
        tate_pair(gamma, F7.sign_order)
        assert F7.sign_order == 6 and len(products) == 5

    def test_full_cycle_permutation_vanishes(self):
        # regular representation of Z/m: induced module, so both parities die
        for m in (2, 3, 4):
            perm = IntMatrix.from_columns(
                [[1 if i == (j + 1) % m else 0 for i in range(m)] for j in range(m)]
            )
            even, odd = tate_pair(perm, m)
            assert even == TRIV and odd == TRIV

    def test_additivity_under_direct_sum(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        neg = IntMatrix([[-1]])
        combo = block_diagonal([IntMatrix.identity(1), swap, neg])
        even, odd = tate_pair(combo, 2)
        e1, o1 = tate_pair(IntMatrix.identity(1), 2)
        e2, o2 = tate_pair(swap, 2)
        e3, o3 = tate_pair(neg, 2)
        assert even.free_rank == e1.free_rank + e2.free_rank + e3.free_rank
        assert sorted(even.torsion) == sorted(e1.torsion + e2.torsion + e3.torsion)
        assert sorted(odd.torsion) == sorted(o1.torsion + o2.torsion + o3.torsion)

    def test_order_one_group(self):
        even, odd = tate_pair(IntMatrix.identity(3), 1)
        assert even == TRIV and odd == TRIV

    @settings(max_examples=120, deadline=None)
    @given(finite_order_actions())
    def test_matches_cycle_representatives(self, action):
        gamma, m = action
        even, odd = tate_cycles(gamma, m)
        assert tate_pair(gamma, m) == (even.invariants, odd.invariants)

    def test_closed_forms(self):
        # trivial Z^2 of order m: even (Z/m)^2, odd 0; sign module: even 0, odd Z/2
        for m in (2, 4, 6):
            assert tate_pair(IntMatrix.identity(2), m) == (AbGroupInvariants(0, (m, m)), TRIV)
        assert tate_pair(IntMatrix([[-1]]), 2) == (TRIV, Z2)

    @staticmethod
    def spied_reductions(monkeypatch):
        """Lists that grow by one per Smith reduction and per unit-pivot
        elimination run after this call."""
        calls, eliminations = [], []
        real_smith, real_invariants = znf._run_smith, znf._invariants

        def spy_smith(mat):
            calls.append(mat)
            return real_smith(mat)

        def spy_invariants(*args):
            eliminations.append(args[1:])
            return real_invariants(*args)

        monkeypatch.setattr(znf, "_run_smith", spy_smith)
        monkeypatch.setattr(znf, "_invariants", spy_invariants)
        return calls, eliminations

    def spied_tate_pair(self, monkeypatch, bk, f, m):
        """tate_pair of U(f)'s gamma0 at m, with the Smith reductions and the
        unit-pivot eliminations it ran."""
        gamma = u_module(build_af(bk, f)).operator("gamma0")
        calls, eliminations = self.spied_reductions(monkeypatch)
        return tate_pair(gamma, m), calls, eliminations

    def test_two_invariants_only_reductions(self, monkeypatch):
        # at m = 2, 4 and 8 the trace and counts modulo m: no reduction over Z
        # (U(15) over Q, U(T^3 + T) over F_5 and U(T^2 + T) over F_9)
        cases = [(Q, 15, 2, (2, 2)), (F5, (0, 1, 0, 1), 4, (4,) * 4), (F9, (0, 1, 1), 8, (8, 8))]
        gammas = [u_module(build_af(bk, f)).operator("gamma0") for bk, f, _, _ in cases]
        calls, eliminations = self.spied_reductions(monkeypatch)
        for gamma, (bk, _, m, torsion) in zip(gammas, cases):
            assert bk.sign_order == m
            assert tate_pair(gamma, m) == (AbGroupInvariants(0, torsion),) * 2
        assert calls == [] and eliminations == []

    def test_two_invariants_only_reductions_at_order_6(self, monkeypatch):
        # U(T^2 + T) over F_7: 1 - gamma and the norm are reduced
        pair, calls, eliminations = self.spied_tate_pair(monkeypatch, F7, F7.mul(T, (1, 1)), 6)
        assert len(calls) == 2 and len(eliminations) == 2
        assert pair == (AbGroupInvariants(0, (6, 6)),) * 2


class TestInvolutionEngine:
    """The m = 2 route against the two reductions over Z it replaces."""

    @staticmethod
    def check(gamma):
        assert tate_pair(gamma, 2) == rank_torsion_tate_pair(gamma, 2)
        one = type(gamma).identity(gamma.rows)
        assert involution_rank_torsion(gamma) == (rank_torsion(one + gamma),
                                                  rank_torsion(one - gamma))

    def test_u_of_every_level_up_to_420(self):
        for f in range(1, 421):
            self.check(u_module(build_af(Q, f)).operator("gamma0"))

    def test_u_of_every_f3_level_up_to_degree_4(self):
        for degree in range(1, 5):
            for low in itertools.product(range(3), repeat=degree):
                self.check(u_module(build_af(F3, (*low, 1))).operator("gamma0"))

    @settings(max_examples=200, deadline=None)
    @given(involutions())
    def test_random_involutions(self, gamma):
        self.check(gamma)

    def test_an_odd_trace_is_refused(self, monkeypatch):
        # a norm whose trace m does not divide: 1 + gamma of trace 1 at m = 2,
        # and a norm of trace 2 at m = 4; no gamma of order m has either
        for m, norm in ((2, SparseMatrix.identity(1)), (4, SparseMatrix(1, [{0: 2}]))):
            monkeypatch.setattr(signh, "norm_matrix", lambda gamma, order, norm=norm: norm)
            with pytest.raises(OrderViolation, match=f"not divisible by {m}"):
                tate_pair(SparseMatrix.identity(1), m)


class TestTwoPowerEngine:
    """The m = 4 and m = 8 routes against the two reductions over Z they
    replace, on U(f) at every monic f of small degree."""

    @pytest.mark.parametrize("bk, top_degree", [(F5, 3), (F9, 2)], ids=["q5", "q9"])
    def test_u_of_every_level(self, bk, top_degree):
        m = bk.sign_order
        for degree in range(top_degree + 1):
            for low in itertools.product(range(bk.q), repeat=degree):
                gamma = u_module(build_af(bk, (*low, 1))).operator("gamma0")
                assert tate_pair(gamma, m) == rank_torsion_tate_pair(gamma, m)


class TestSignHomologyU:
    def test_u3(self):
        table = sign_homology_U(Q, 3)
        assert table[0] == Z2 and table[1] == Z2

    def test_u4(self):
        table = sign_homology_U(Q, 4)
        assert table[0] == Z2 and table[1] == Z2

    def test_u15(self):
        table = sign_homology_U(Q, 15)
        expected = AbGroupInvariants(0, (2, 2))
        assert table[0] == expected and table[1] == expected

    def test_ff_two_primes(self):
        f = F3.mul(T, (1, 1))
        table = sign_homology_U(F3, f)
        expected = AbGroupInvariants(0, (2, 2))
        assert table[0] == expected and table[1] == expected

    def test_euler_symmetry(self):
        # |even| = |odd| on every computed table
        for f in (3, 4, 5, 8, 9, 12):
            table = sign_homology_U(Q, f)
            assert table[0].order() == table[1].order()

    def test_independent_of_section_choice(self):
        # recompute the Tate pair with no section at all: the two-periodic
        # complex (1 - gamma, N) on all of A(12), presented by the relations
        # in a shuffled basis enumeration, has U(12)'s Tate groups as its
        # homology; gamma0 has order 2, so N = 1 + gamma
        import random

        af = build_af(Q, 12)
        rel = distribution_relations(af)
        rng = random.Random(7)
        perm = list(range(af.rank))
        rng.shuffle(perm)
        pmat = IntMatrix.from_columns(
            [[1 if i == p else 0 for i in range(af.rank)] for p in perm]
        )
        rel_shuffled = pmat * rel.dense()
        gamma_shuffled = pmat * af.operators.operator("gamma0").dense() * pmat.transpose()
        ident = IntMatrix.identity(af.rank)
        one_minus, norm = ident - gamma_shuffled, ident + gamma_shuffled
        ranks = {n: af.rank for n in range(4)}
        rels = {n: rel_shuffled for n in ranks}
        diff = {n: one_minus if n % 2 == 0 else norm for n in range(1, 4)}
        presented = PresentedComplex(ranks, rels, diff, stable=(1, 2)).homology()
        table = sign_homology_U(Q, 12)
        assert (presented[2], presented[1]) == (table[0], table[1])


class TestRankTheorem:
    def test_kubert_instances(self):
        for f, copies in ((3, 1), (4, 1), (15, 2), (105, 4)):
            report = verify_rank_theorem(Q, f)
            assert report.applicable and report.passed
            assert report.expected == AbGroupInvariants(0, (2,) * copies)

    def test_not_applicable(self):
        assert not verify_rank_theorem(Q, 1).applicable
        assert not verify_rank_theorem(Q, 6).applicable
        assert verify_rank_theorem(Q, 6).verdict == "NOT_APPLICABLE"

    def test_yin_instances_q3(self):
        report = verify_rank_theorem(F3, T)
        assert report.passed and report.expected == Z2

    def test_yin_q2_trivial(self):
        report = verify_rank_theorem(F2, T)
        assert report.passed and report.expected == TRIV

    def test_yin_q5(self):
        report = verify_rank_theorem(F5, T)
        assert report.passed
        assert report.expected == AbGroupInvariants(0, (4,))


class TestFunctoriality:
    def test_3_into_15(self):
        report = functoriality_report(Q, 3, 15)
        assert report.injective
        assert report.source_even == Z2
        assert report.target_even == AbGroupInvariants(0, (2, 2))
        assert report.g_acts_trivially

    def test_identity_map(self):
        report = functoriality_report(Q, 5, 5)
        assert report.injective

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            functoriality_report(Q, 4, 5)
