import pytest

from uod.arith import ArchimedeanBackend, FunctionFieldBackend
from uod.chainkit import WindowTooSmall
from uod.ftate import (
    AlmostFreeSpec,
    HypothesisViolated,
    RankZeroUnsupported,
    ftate_closed_form,
    ftate_via_kt,
    thm442_lhs,
)
from uod.signh import sign_homology_U
from uod.znf import AbGroupInvariants

Q = ArchimedeanBackend()
F3 = FunctionFieldBackend(3)
T = (0, 1)


class TestClosedForm:
    def test_rank1_m2(self):
        assert ftate_closed_form(AlmostFreeSpec(1, 2)) == AbGroupInvariants(0, (2,))

    def test_rank3_m4(self):
        assert ftate_closed_form(AlmostFreeSpec(3, 4)) == AbGroupInvariants(0, (4,) * 4)

    def test_m1_trivial(self):
        assert ftate_closed_form(AlmostFreeSpec(2, 1)) == AbGroupInvariants(0)

    def test_rank_zero_rejected(self):
        with pytest.raises(RankZeroUnsupported):
            ftate_closed_form(AlmostFreeSpec(0, 2))


class TestViaKt:
    def test_r1_m2(self):
        table = ftate_via_kt(AlmostFreeSpec(1, 2), window=(-6, 6))
        degs = table.stable_degrees()
        assert degs
        assert all(table.entries[n] == AbGroupInvariants(0, (2,)) for n in degs)

    def test_r4_m3(self):
        table = ftate_via_kt(AlmostFreeSpec(4, 3))
        expected = AbGroupInvariants(0, (3,) * 8)
        assert all(table.entries[n] == expected for n in table.stable_degrees())

    def test_r2_m1(self):
        table = ftate_via_kt(AlmostFreeSpec(2, 1))
        assert all(table.entries[n].is_trivial for n in table.stable_degrees())

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            ftate_via_kt(AlmostFreeSpec(2, 2), window=(-2, 2))

    def test_grid_matches_closed_form(self):
        for r in range(1, 5):
            for m in range(1, 5):
                table = ftate_via_kt(AlmostFreeSpec(r, m))
                expected = ftate_closed_form(AlmostFreeSpec(r, m))
                degs = table.stable_degrees()
                assert degs, (r, m)
                assert all(table.entries[n] == expected for n in degs), (r, m)


class TestThm442:
    def test_archimedean_15(self):
        table = thm442_lhs(Q, 15)
        expected = AbGroupInvariants(0, (2, 2))
        assert all(table.entries[n] == expected for n in table.stable_degrees())
        assert table.agrees_with(sign_homology_U(Q, 15))

    def test_ff_two_primes(self):
        f = F3.mul(T, (1, 1))
        table = thm442_lhs(F3, f)
        expected = AbGroupInvariants(0, (2, 2))
        assert all(table.entries[n] == expected for n in table.stable_degrees())
        assert table.agrees_with(sign_homology_U(F3, f))

    def test_nonunit_nu_archimedean_rejected(self):
        with pytest.raises(HypothesisViolated):
            thm442_lhs(Q, 3, {3: 2})

    def test_not_squarefree_rejected(self):
        with pytest.raises(HypothesisViolated):
            thm442_lhs(Q, 4)

    @pytest.mark.parametrize("bk, f", [(Q, 1), (F3, (1,))])
    def test_level_without_a_prime_rejected(self, bk, f):
        # no Koszul operator: the bare Tate column is one parity off
        with pytest.raises(RankZeroUnsupported, match="prime divisor"):
            thm442_lhs(bk, f)

    def test_nu_minus_one(self):
        # nu_3 = -1: operator scalar -2; pin the interior table by direct SNF
        table = thm442_lhs(Q, 3, {3: -1})
        values = {table.entries[n] for n in table.stable_degrees()}
        # the complex is two-periodic, so at most two distinct values appear
        assert len(values) <= 2
        # frozen expected value, computed independently below
        assert values == {AbGroupInvariants(0, (2,))}

    def test_nu_minus_one_oracle(self):
        # independent check of the previous value: the total complex with one
        # Koszul operator -2 and vertical [2; 0] has, per degree, matrix
        # [[2 or 0, -2], [0, -(0 or 2)]] acting on Z^2; brute-force both
        # parities with the dense lattice references only.
        from dense_reference import IntMatrix, homology_pair

        d_even = IntMatrix([[2, -2], [0, 0]])
        d_odd = IntMatrix([[0, -2], [0, -2]])
        # degrees alternate d_even, d_odd; check both spots
        h_at_even = homology_pair(d_even, d_odd).invariants
        h_at_odd = homology_pair(d_odd, d_even).invariants
        assert {h_at_even, h_at_odd} == {AbGroupInvariants(0, (2,))}

    def test_degree_independence(self):
        for f in (3, 15):
            table = thm442_lhs(Q, f)
            assert table.constant_value() is not None

    def test_tbar_route_on_the_distribution_module(self):
        # run the generic double complex on the actual level module: with
        # operators nu_p - X_p the quotient column is the Tate complex of the
        # distribution module itself, so its homology must equal the direct
        # route for both backends
        # nu_p - X_p, the norm 1 + gamma (the sign order is 2 in every case)
        # and 1 - gamma are all maps: shift * 1 + scale * Op(y, nu).  X_p
        # itself stays out: the pair rule, which is only sufficient, refuses
        # X_p next to nu_p - X_p, since nu_p completes the empty fibers
        from dense_reference import companion, norm_matrix, with_operator
        from uod.chainkit import ActionModule, MapOperator, build_kt
        from uod.distmod import build_af, x_op_name
        from uod.signh import sign_homology_U

        def one_minus(op, c=1):
            return MapOperator(op.images, op.nu, c - op.shift, -op.scale)

        cases = [(Q, 6), (Q, 12), (F3, F3.mul(T, (1, 1)))]
        for bk, f in cases:
            af = build_af(bk, f)
            assert bk.sign_order == 2
            gamma = af.operators.maps["gamma0"]
            module = ActionModule(af.rank, {"gamma0": gamma}, af.operators.nu)
            names = []
            for p in af.primes:
                name = f"koszul[{bk.format_ideal(p)}]"
                module = with_operator(module, name, one_minus(af.operators.maps[x_op_name(bk, p)],
                                                               af.nu.get(p, 1)))
                names.append(name)
            norm = MapOperator(gamma.images, shift=1)
            assert norm.matrix() == norm_matrix(af.operators.operator("gamma0"), 2)
            module = with_operator(module, "norm", norm)
            module = with_operator(module, "one_minus", one_minus(gamma))
            kt = build_kt(module, names, "norm", "one_minus",
                          window=(-(len(names) + 3), len(names) + 3))
            tbar = companion(kt, "Tbar").homology()
            # both pipelines present the same level module, so this holds at
            # level 1 even where the tower exception applies
            direct = sign_homology_U(bk, f, level=1)
            stable = tbar.stable_degrees()
            assert stable
            for n in stable:
                # the norm map leaves even column degrees, pairing them with
                # the odd part of the direct table
                expected = direct[1] if n % 2 == 0 else direct[0]
                assert tbar.entries[n] == expected, (bk.kind, f, n)


def test_the_scalar_modules_are_certified_with_no_product(monkeypatch):
    # the 1 x 1 scalars of scalar_kt are maps, so neither the commutation
    # certificate nor plus * minus = 0 multiplies a matrix
    from uod import chainkit
    from dense_reference import IntMatrix
    from uod.chainkit import scalar_kt
    from uod.znf import SparseMatrix

    depth, entered, inside = [0], [], []

    def certifying(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            entered.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(mul):
        def wrapper(a, b):
            if depth[0]:
                inside.append((type(a).__name__, a.rows, b.cols))
            return mul(a, b)
        return wrapper

    monkeypatch.setattr(chainkit.ActionModule, "__init__", certifying(chainkit.ActionModule.__init__))
    monkeypatch.setattr(chainkit, "check_plus_minus", certifying(chainkit.check_plus_minus))
    monkeypatch.setattr(SparseMatrix, "__mul__", counted(SparseMatrix.__mul__))
    monkeypatch.setattr(IntMatrix, "__mul__", counted(IntMatrix.__mul__))
    scalar_kt([0, 2, -2], 2, 0)
    scalar_kt([], 0, 5, (-3, 3))
    ftate_via_kt(AlmostFreeSpec(3, 4))
    thm442_lhs(Q, 30)
    thm442_lhs(Q, 3, {3: -1})
    thm442_lhs(F3, F3.mul(T, (1, 1)))
    assert entered.count("__init__") == entered.count("check_plus_minus") == 6
    assert inside == []
