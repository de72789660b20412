import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    IntMatrix,
    PresentedComplex,
    as_sparse,
    block_diagonal,
    dense,
    functoriality_report,
    induced_operator,
    norm_matrix,
    rank_torsion_tate_pair,
    tate_cycles,
)
from uod import znf
from uod.arith import ArchimedeanBackend, FunctionFieldBackend
from uod.chainkit import MapOperator
from uod.distmod import build_af, distribution_relations, u_module
from uod.signh import (
    OrderViolation,
    orbit_sums,
    read_spots,
    sign_homology_U,
    tate_pair,
    tate_spots,
    verify_rank_theorem,
)
from uod.znf import AbGroupInvariants, FreeQuotient, SparseMatrix, rank_torsion

Q = ArchimedeanBackend()
F3 = FunctionFieldBackend(3)
F2 = FunctionFieldBackend(2)
F5 = FunctionFieldBackend(5)
F7 = FunctionFieldBackend(7)
F9 = FunctionFieldBackend(9)
F4 = FunctionFieldBackend(4)
F11 = FunctionFieldBackend(11)
F13 = FunctionFieldBackend(13)
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


def _cycle_map(length):
    """The map of ``_sparse_cycle(length)``: Op(y) e_i = e_k for y(k) = i."""
    return MapOperator(tuple((k - 1) % length for k in range(length)))


def _map_of(perm):
    """The ``MapOperator`` whose matrix is the permutation matrix ``perm``."""
    images = [None] * perm.rows
    for i, col in enumerate(as_sparse(perm).entries):
        (k, v), = col.items()
        assert v == 1
        images[k] = i
    return MapOperator(tuple(images))


def _whole(n):
    """Z^n as a ``FreeQuotient`` of itself: no relations, P = S = 1."""
    one = SparseMatrix.identity(n)
    return FreeQuotient(SparseMatrix.zeros(n, 0), one, one)


def _perm_pair(perm, m):
    """``tate_pair`` of the permutation matrix ``perm`` acting on Z^n."""
    return tate_pair(_whole(perm.rows), _map_of(perm), m)


def _read_groups(gamma, m):
    """The Tate groups of a plain matrix gamma of order m, read by
    ``read_spots`` off the oracle's norm and 1 - gamma."""
    norm = as_sparse(norm_matrix(gamma, m))
    difference = as_sparse(type(gamma).identity(gamma.rows) - gamma)
    (rank_norm, tors_norm), (rank_difference, tors_difference) = read_spots(norm, difference, m)
    free = gamma.rows - rank_norm - rank_difference
    return AbGroupInvariants(free, tors_norm), AbGroupInvariants(free, tors_difference)


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
    """Spy on ``SparseMatrix.__mul__``: the list grows by the shapes of the
    two factors, ((rows, cols), (rows, cols)), once per product."""
    products = []
    real = SparseMatrix.__mul__

    def spy(a, b):
        products.append(((a.rows, a.cols), (b.rows, b.cols)))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", spy)
    return products


def _check_u(u, m):
    """tate_pair of U's gamma0 at m against the two reductions over Z, and
    the induced orbit norm against the oracle's chain of powers."""
    perm = u.parent.operators.maps["gamma0"]
    gamma = induced_operator(u, "gamma0")
    assert u.induce_preserving(orbit_sums(perm, m)) == norm_matrix(gamma, m)
    assert tate_pair(u, perm, m) == rank_torsion_tate_pair(gamma, m)


def _monic(bk, top_degree):
    """Every monic f over F_q of degree at most ``top_degree``."""
    for degree in range(top_degree + 1):
        for low in itertools.product(range(bk.q), repeat=degree):
            yield (*low, 1)


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
        assert _perm_pair(IntMatrix.identity(1), 2) == (Z2, TRIV)
        assert _read_groups(IntMatrix.identity(1), 2) == (Z2, TRIV)

    def test_swap_module_vanishes(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        assert _perm_pair(swap, 2) == (TRIV, TRIV)
        assert _read_groups(swap, 2) == (TRIV, TRIV)

    def test_order_violation(self):
        # 2 = 1 + Op(id) and a map that is not injective: neither is a
        # permutation, and the power oracle agrees that 2 has no order
        for gamma in (MapOperator((0,), shift=1), MapOperator((0, 0))):
            with pytest.raises(OrderViolation, match="not a permutation"):
                tate_pair(_whole(len(gamma.images)), gamma, 2)
        with pytest.raises(OrderViolation):
            norm_matrix(IntMatrix([[2]]), 2)

    @pytest.mark.parametrize("m, length", [(2, 3), (2, 4), (6, 4), (6, 5)])
    def test_sparse_order_violation(self, m, length):
        # a cycle whose length does not divide m: refused on the map before
        # anything is induced, as the oracle's chain of powers refuses it
        with pytest.raises(OrderViolation, match=f"length {length}, which does not divide {m}"):
            tate_pair(_whole(length), _cycle_map(length), m)
        with pytest.raises(OrderViolation, match=f"gamma\\^{m} is not the identity"):
            norm_matrix(_sparse_cycle(length), m)

    @pytest.mark.parametrize("m, length", [(2, 2), (6, 2), (6, 3), (6, 6)])
    def test_norm_is_the_sum_of_the_powers(self, m, length):
        gamma = _sparse_cycle(length)
        assert _cycle_map(length).matrix() == gamma
        want = sum((_dense_power(dense(gamma), k) for k in range(m)),
                   IntMatrix.zeros(length, length))
        assert dense(orbit_sums(_cycle_map(length), m)) == want

    @pytest.mark.parametrize("gamma, m", [
        pytest.param(MapOperator((0, 1, 2)), 2, id="identity-2"),
        pytest.param(_cycle_map(2), 2, id="swap-2"),
        pytest.param(_cycle_map(6), 6, id="6-cycle-6"),
        pytest.param(_cycle_map(3), 6, id="3-cycle-6"),
    ])
    def test_one_power_chain(self, monkeypatch, gamma, m):
        # the chain of powers of gamma0 is walked once, on its map: its
        # cycles certify the order and give the orbit sums, so the products
        # are the inductions only, the norm's and, where it is read (every
        # m but 2), that of 1 - gamma: two each, the section and then the
        # projection
        products = _count_products(monkeypatch)
        tate_pair(_whole(len(gamma.images)), gamma, m)
        assert len(products) == (2 if m == 2 else 4)

    def test_one_power_chain_on_u(self, monkeypatch):
        # U(15) over Q, U(T^3 + T) over F_5 and U(T^2 + T) over F_7, of sign
        # orders 2, 4 and 6: 2 products at m = 2 and 4 otherwise, and none
        # of them takes two operators induced on U(f)
        cases = [(Q, 15), (F5, (0, 1, 0, 1)), (F7, F7.mul(T, (1, 1)))]
        for bk, f in cases:
            u = u_module(build_af(bk, f))
            assert u.rank < len(u.parent.basis)
            with monkeypatch.context() as patch:
                products = _count_products(patch)
                tate_pair(u, u.parent.operators.maps["gamma0"], bk.sign_order)
            induced = (u.rank, u.rank)
            assert len(products) == (2 if bk.sign_order == 2 else 4)
            assert all(a != induced or b != induced for a, b in products)
        assert [bk.sign_order for bk, _ in cases] == [2, 4, 6]

    def test_full_cycle_permutation_vanishes(self):
        # regular representation of Z/m: induced module, so both parities die
        for m in (2, 3, 4):
            perm = IntMatrix.from_columns(
                [[1 if i == (j + 1) % m else 0 for i in range(m)] for j in range(m)]
            )
            assert _perm_pair(perm, m) == (TRIV, TRIV)
            assert _read_groups(perm, m) == (TRIV, TRIV)

    def test_additivity_under_direct_sum(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        neg = IntMatrix([[-1]])
        combo = block_diagonal([IntMatrix.identity(1), swap, neg])
        even, odd = _read_groups(combo, 2)
        e1, o1 = _read_groups(IntMatrix.identity(1), 2)
        e2, o2 = _read_groups(swap, 2)
        e3, o3 = _read_groups(neg, 2)
        assert even.free_rank == e1.free_rank + e2.free_rank + e3.free_rank
        assert sorted(even.torsion) == sorted(e1.torsion + e2.torsion + e3.torsion)
        assert sorted(odd.torsion) == sorted(o1.torsion + o2.torsion + o3.torsion)

    def test_order_one_group(self):
        assert _perm_pair(IntMatrix.identity(3), 1) == (TRIV, TRIV)
        assert _read_groups(IntMatrix.identity(3), 1) == (TRIV, TRIV)

    @settings(max_examples=120, deadline=None)
    @given(finite_order_actions())
    def test_matches_cycle_representatives(self, action):
        gamma, m = action
        even, odd = tate_cycles(gamma, m)
        assert _read_groups(gamma, m) == (even.invariants, odd.invariants)

    def test_closed_forms(self):
        # trivial Z^2 of order m: even (Z/m)^2, odd 0; sign module: even 0, odd Z/2
        for m in (2, 4, 6):
            want = (AbGroupInvariants(0, (m, m)), TRIV)
            assert _perm_pair(IntMatrix.identity(2), m) == want
            assert _read_groups(IntMatrix.identity(2), m) == want
        assert _read_groups(IntMatrix([[-1]]), 2) == (TRIV, Z2)

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
        u = u_module(build_af(bk, f))
        calls, eliminations = self.spied_reductions(monkeypatch)
        return tate_pair(u, u.parent.operators.maps["gamma0"], m), calls, eliminations

    def test_two_invariants_only_reductions(self, monkeypatch):
        # at m = 2, 4 and 8 the trace and counts modulo m: no reduction over Z
        # (U(15) over Q, U(T^3 + T) over F_5 and U(T^2 + T) over F_9)
        cases = [(Q, 15, 2, (2, 2)), (F5, (0, 1, 0, 1), 4, (4,) * 4), (F9, (0, 1, 1), 8, (8, 8))]
        modules = [u_module(build_af(bk, f)) for bk, f, _, _ in cases]
        calls, eliminations = self.spied_reductions(monkeypatch)
        for u, (bk, _, m, torsion) in zip(modules, cases):
            assert bk.sign_order == m
            pair = tate_pair(u, u.parent.operators.maps["gamma0"], m)
            assert pair == (AbGroupInvariants(0, torsion),) * 2
        assert calls == [] and eliminations == []

    def test_two_invariants_only_reductions_at_order_6(self, monkeypatch):
        # U(T^2 + T) over F_7: 1 - gamma and the norm are reduced
        pair, calls, eliminations = self.spied_tate_pair(monkeypatch, F7, F7.mul(T, (1, 1)), 6)
        assert len(calls) == 2 and len(eliminations) == 2
        assert pair == (AbGroupInvariants(0, (6, 6)),) * 2


class TestInvolutionEngine:
    """The m = 2 route against the two reductions over Z it replaces."""

    @staticmethod
    def check(u):
        _check_u(u, 2)
        gamma = induced_operator(u, "gamma0")
        one = SparseMatrix.identity(gamma.rows)
        assert tate_spots(u, u.parent.operators.maps["gamma0"], 2) == (
            rank_torsion(one + gamma), rank_torsion(one - gamma))

    def test_u_of_every_level_up_to_420(self):
        for f in range(1, 421):
            self.check(u_module(build_af(Q, f)))

    def test_u_of_every_f3_level_up_to_degree_4(self):
        for f in _monic(F3, 4):
            if len(f) > 1:
                self.check(u_module(build_af(F3, f)))

    @settings(max_examples=200, deadline=None)
    @given(involutions())
    def test_random_involutions(self, gamma):
        # 1 - gamma is not read at m = 2: one count of the norm serves both
        one = IntMatrix.identity(gamma.rows)
        assert read_spots(as_sparse(one + gamma), None, 2) == (
            rank_torsion(as_sparse(one + gamma)), rank_torsion(as_sparse(one - gamma)))
        assert _read_groups(gamma, 2) == rank_torsion_tate_pair(gamma, 2)

    def test_an_odd_trace_is_refused(self):
        # a norm whose trace m does not divide: 1 + gamma of trace 1 at m = 2,
        # and a norm of trace 2 at m = 4; no gamma of order m has either
        for m, norm in ((2, SparseMatrix.identity(1)), (4, SparseMatrix(1, [{0: 2}]))):
            with pytest.raises(OrderViolation, match=f"not divisible by {m}"):
                read_spots(norm, SparseMatrix.zeros(1, 1), m)


class TestTwoPowerEngine:
    """The m = 4 and m = 8 routes against the two reductions over Z they
    replace, on U(f) at every monic f of small degree."""

    @pytest.mark.parametrize("bk, top_degree", [(F5, 3), (F9, 2)], ids=["q5", "q9"])
    def test_u_of_every_level(self, bk, top_degree):
        for f in _monic(bk, top_degree):
            _check_u(u_module(build_af(bk, f)), bk.sign_order)


class TestCompositeOrders:
    """m = 3, 10 and 12 (q = 4, 11 and 13): the sign orders with an odd
    factor besides 6, m = 12 mixing a = 2 with it, against the two
    reductions over Z, on U(f) at every monic f of degree at most 2."""

    @pytest.mark.parametrize("bk", [F4, F11, F13], ids=["q4", "q11", "q13"])
    def test_u_of_every_level(self, bk):
        for f in _monic(bk, 2):
            _check_u(u_module(build_af(bk, f)), bk.sign_order)


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
        rel_shuffled = pmat * dense(rel)
        gamma_shuffled = pmat * dense(af.operators.operator("gamma0")) * pmat.transpose()
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
