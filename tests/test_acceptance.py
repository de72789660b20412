"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every expectation here is exact; there are no tolerances
anywhere because every object is finite and integral.
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from dense_reference import (
    IntMatrix,
    as_sparse,
    companion,
    distribution_relation_holds,
    functoriality_report,
    lemma411_check,
    sign_action,
    kernel_basis,
    sign_action_trivial_on_via_n,
    snf,
    u_of,
)
from uod.arith import (
    ArchimedeanBackend,
    FunctionFieldBackend,
    fiber_map,
    g_action,
    gf_group,
    xi_classes,
    y_map,
)
from uod.chainkit import ActionModule, MapOperator, build_kt
from uod.distmod import (
    build_af,
    lemma411_counts,
    nu_value,
    u_module,
    u_tower,
    xi0_basis,
    xi0_set,
)
from uod.ftate import AlmostFreeSpec, ftate_closed_form, ftate_via_kt, thm442_lhs
from uod.iwasawa import u_values, uprime_compare
from uod.signh import sign_homology_U, tate_pair
from uod.skcx import build_sk, sk_quotients_homology
from uod.znf import AbGroupInvariants, FreeQuotient, SparseMatrix, cokernel_invariants

Q = ArchimedeanBackend()
F2 = FunctionFieldBackend(2)
F3 = FunctionFieldBackend(3)
F5 = FunctionFieldBackend(5)
T = (0, 1)

_u_cache = {}


def cached_u(bk, f):
    key = (bk.key, bk.ideal_key(f))
    if key not in _u_cache:
        _u_cache[key] = u_module(build_af(bk, f))
    return _u_cache[key]


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def z2_copies(k):
    return AbGroupInvariants(0, (2,) * k)


def monic_polys(bk, max_degree):
    out = []
    q = bk.q
    for d in range(1, max_degree + 1):
        for code in range(q**d):
            coeffs = [(code // q**i) % q for i in range(d)] + [1]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            out.append(tuple(coeffs))
    return out


def test_criterion_1_distribution_module_ranks():
    start = time.time()
    for f in list(range(1, 61)) + [105]:
        u = cached_u(Q, f)
        assert u.rank == phi(f), f
    for f in monic_polys(F3, 3):
        u = cached_u(F3, f)
        expected = len(gf_group(F3, f))
        assert u.rank == expected, f
    elapsed = time.time() - start
    report(1, elapsed < 60, f"U(f) free of rank |G_f| for 61+39 levels in {elapsed:.1f}s")


def test_criterion_2_kubert():
    cases = {3: 1, 4: 1, 5: 1, 8: 1, 9: 1, 12: 2, 15: 2, 16: 1, 21: 2, 105: 3}
    for f, r in cases.items():
        table = sign_homology_U(Q, f, u=cached_u(Q, f))
        expected = z2_copies(2 ** (r - 1))
        assert table[0] == expected and table[1] == expected, f
    report(2, True, "each parity (Z/2)^(2^(r-1)) for ten archimedean levels")


def test_criterion_3_yin():
    t1 = (1, 1)
    f3_cases = [
        (T, 1),
        (t1, 1),
        (F3.mul(T, t1), 2),
        (F3.mul(F3.mul(T, t1), (1, 0, 1)), 3),
    ]
    for f, r in f3_cases:
        table = sign_homology_U(F3, f, u=cached_u(F3, f))
        expected = z2_copies(2 ** (r - 1))
        assert table[0] == expected and table[1] == expected, F3.format_ideal(f)
    for f in (T, (1, 1), (1, 1, 1), F2.mul(T, (1, 1))):
        table = sign_homology_U(F2, f, u=cached_u(F2, f))
        assert table[0].is_trivial and table[1].is_trivial, F2.format_ideal(f)
    table = sign_homology_U(F5, T, u=cached_u(F5, T))
    expected = AbGroupInvariants(0, (4,))
    assert table[0] == expected and table[1] == expected
    report(3, True, "q=3 ranks 2^(r-1), q=2 trivial, q=5 gives Z/4 per parity")


def test_criterion_4_thm442_cross_check():
    t1 = (1, 1)
    squarefree = (
        [(Q, f) for f in (3, 5, 15, 21, 105)]
        + [(F3, f) for f in (T, t1, F3.mul(T, t1), F3.mul(F3.mul(T, t1), (1, 0, 1)))]
        + [(F2, f) for f in (T, t1, F2.mul(T, t1))]
        + [(F5, T)]
    )
    for bk, f in squarefree:
        lhs = thm442_lhs(bk, f)
        rhs = sign_homology_U(bk, f, u=cached_u(bk, f))
        assert lhs.agrees_with(rhs), (bk.kind, bk.format_ideal(f))
        assert lhs.constant_value() is not None
    report(4, True, "KT route equals direct route for 13 squarefree levels")


def test_criterion_5_sk_three_way():
    for f in (3, 15):
        values = []
        for level in (1, 2):
            cmp = sk_quotients_homology(build_sk(f, level))
            assert cmp.agree, (f, level)
            values.append(cmp.via_n.constant_value())
        assert values[0] == values[1], f
    report(5, True, "boundary route, numerator route and KT reference agree, N=1,2")


def test_criterion_6_ftate_grid():
    start = time.time()
    for r in range(1, 7):
        for m in range(1, 7):
            spec = AlmostFreeSpec(r, m)
            closed = ftate_closed_form(spec)
            table = ftate_via_kt(spec)
            degs = table.stable_degrees()
            assert degs, (r, m)
            assert all(table.entries[n] == closed for n in degs), (r, m)
    elapsed = time.time() - start
    report(6, elapsed < 60, f"closed form matches complex on the 6x6 grid in {elapsed:.1f}s")


def test_criterion_7_basis_certificates():
    for f in list(range(1, 61)) + [105]:
        # xi0_basis raises unless both certificates hold
        cert = xi0_basis(build_af(Q, f))
        assert len(cert.classes) == phi(f), f
    for f in monic_polys(F3, 3):
        cert = xi0_basis(build_af(F3, f))
        assert len(cert.classes) == len(gf_group(F3, f))
    report(7, True, "unimodular certificates at every criterion-1 level, both backends")


def test_criterion_8_fiber_identity_exhaustive():
    for f in range(2, 37):
        for p, _ in Q.factor(f):
            for cls in (c for c in xi_classes(Q, f) if c.order == f):
                assert lemma411_check(Q, p, f, cls).equal, (f, p)
        assert lemma411_counts(Q, f) == (len(Q.factor(f)) * phi(f), 0), f
    for f in monic_polys(F3, 2):
        for p, _ in F3.factor(f):
            for cls in (c for c in xi_classes(F3, f) if c.order == f):
                assert lemma411_check(F3, p, f, cls).equal, F3.format_ideal(f)
        exact = len(gf_group(F3, f))
        assert lemma411_counts(F3, f) == (len(F3.factor(f)) * exact, 0), F3.format_ideal(f)
    report(8, True, "fiber identity holds exhaustively (f <= 36 and deg f <= 2)")


def test_criterion_9_u_function():
    assert u_of(Fraction(1, 3)) == Fraction(1, 2)
    assert u_of(Fraction(2, 3)) == Fraction(-1, 2)
    for f in range(1, 25):
        u_values(f)  # re-substitutes the defining identity internally
        for g in (d for d in range(2, f + 1) if f % d == 0):
            for a_num in range(0, f, g):
                assert distribution_relation_holds(Fraction(a_num, f), g), (f, g)
    for f in (3, 4, 5, 12):
        rep = uprime_compare(f, u=cached_u(Q, f))
        assert rep.equivariant, f
    report(9, True, "character identity, distribution relations, lattice index one")


def test_criterion_10_functoriality():
    for f, g in ((3, 15), (5, 15), (3, 105)):
        rep = functoriality_report(Q, f, g)
        assert rep.injective, (f, g)
        if g in (15, 105):
            assert rep.g_acts_trivially, g
    report(10, True, "induced maps injective; G acts trivially at levels 15 and 105")


def test_criterion_11_property_suite():
    import random

    rng = random.Random(20260810)

    # exact transforms and permutation invariance of the normal form
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        res = snf(m)
        assert res.left * m * res.right == res.diagonal()
        perm_r = list(range(rows))
        perm_c = list(range(cols))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        assert cokernel_invariants(as_sparse(m)) == cokernel_invariants(
            as_sparse(m.submatrix(perm_r, perm_c)))
        k = kernel_basis(m)
        assert (m * k).is_zero()

    # Koszul side: invertible operator kills the edge row; windows stabilize
    # (every operator is a map, shift * 1 + scale * Op(y, nu); the scalar c
    # on Z is Op(id) + (c - 1))
    uni = MapOperator((1, 1), nu=1)  # [[1, 1], [0, 1]]
    zero2 = MapOperator((0, 1), shift=-1)
    module = ActionModule(2, {"X": uni, "plus": zero2, "minus": zero2})
    kt = build_kt(module, ["X"], "plus", "minus", window=(-3, 3))
    assert all(v.is_trivial for v in companion(kt, "K").homology().entries.values())
    one = ActionModule(1, {name: MapOperator((0,), shift=c - 1)
                           for name, c in (("X", 0), ("p", 2), ("m", 0))})
    small = companion(build_kt(one, ["X"], "p", "m", window=(-5, 5)), "KTtot").homology()
    large = companion(build_kt(one, ["X"], "p", "m", window=(-8, 8)), "KTtot").homology()
    assert small.agrees_with(large)

    # arithmetic layer: composition, equivariance, torsor count, sign order
    for f in (8, 12):
        group = gf_group(Q, f)
        for s in group:
            for cls in xi_classes(Q, f):
                assert y_map(Q, 2, g_action(Q, s, cls)) == g_action(Q, s, y_map(Q, 2, cls))
        exact = [c for c in xi_classes(Q, f) if c.order == f]
        assert len(exact) == len(group)
        for cls in xi_classes(Q, f):
            twice = sign_action(Q, sign_action(Q, cls))
            assert twice == cls

    # distribution layer: counting, depth-lowering, composite relations
    for f in (12, 16):
        assert len(xi0_set(Q, f)) == phi(f)
    af = build_af(Q, 12, {2: -1, 3: 3})
    u = u_module(af)
    for g in (4, 6, 12):
        fibers = fiber_map(Q, g, 12)
        for target in xi_classes(Q, 12 // g):
            vec = [0] * af.rank
            vec[af.index[target]] += nu_value(Q, af.nu, g)
            for eta in fibers[target]:
                vec[af.index[eta]] -= 1
            assert all(v == 0 for v in u.reduce_vector(vec))

    # sign homology: induced modules vanish, parities balance
    one = SparseMatrix.identity(2)
    swap = MapOperator((1, 0))
    assert tate_pair(FreeQuotient(SparseMatrix.zeros(2, 0), one, one), swap, 2) == (
        AbGroupInvariants(0), AbGroupInvariants(0))
    for f in (9, 12):
        table = sign_homology_U(Q, f, u=cached_u(Q, f))
        assert table[0].order() == table[1].order()

    # tower stabilization with the flagged exception
    assert u_tower(Q, 3, 2).stabilized
    assert u_tower(Q, 2, 2).exception_flagged

    # symbol complex: unit classes act trivially on the boundary route
    trivial, total = sign_action_trivial_on_via_n(build_sk(15, 1))
    assert trivial == total

    # u function: oddness forced by the trivial character at each level
    for f in (3, 4, 5, 12, 16):
        assert sum(u_values(f).values()) == 0

    report(11, True, "module invariant sweeps all green")
