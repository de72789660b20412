import copy
import dataclasses
import itertools
import json
import re
import types

import pytest

import dense_reference
from dense_reference import (
    IntMatrix,
    checked_induce,
    class_matrix,
    dense,
    image_basis,
    induced_operator,
    lemma411_check,
    lemma411_reference_counts,
    reference_af,
    reference_table,
    sign_action,
    snf,
    u_inclusion,
    with_operator,
    x_operator,
)
from uod import arith, distmod, znf
from uod.arith import (
    ArchimedeanBackend,
    FunctionFieldBackend,
    xi_classes,
    xi_from_fraction,
    xi_in_level,
    y_map,
)
from uod.distmod import (
    BasisCertificateFailed,
    OrderMismatch,
    build_af,
    depth,
    lemma411_counts,
    nu_value,
    partition_tag,
    StructureCheckFailed,
    UModule,
    distribution_relations,
    u_module,
    u_tower,
    x_op_name,
    xi0_basis,
    xi0_set,
)
from uod.chainkit import ActionModule, MapOperator, NonCommutingOperators
from uod.cli import main
from uod.signh import OrderViolation, sign_homology_U, tate_pair
from uod.znf import InducedOperatorUndefined, SparseMatrix

Q = ArchimedeanBackend()
F3 = FunctionFieldBackend(3)
F5 = FunctionFieldBackend(5)
T = (0, 1)


def xi(a, f):
    return xi_from_fraction(Q, a, f)


def sparse(m: IntMatrix) -> SparseMatrix:
    return SparseMatrix(m.rows, [dict(enumerate(c)) for c in m.columns()])


def override_depths(monkeypatch, changes: dict):
    """Make ``distmod.level_depths`` report ``changes`` (class -> depth) at
    every level that holds those classes, and the true depths elsewhere."""
    true_depths = distmod.level_depths

    def patched(bk, f):
        depths = list(true_depths(bk, f))
        index = arith.level_table(bk, f).index
        for cls, d in changes.items():
            if cls in index:
                depths[index[cls]] = d
        return tuple(depths)

    monkeypatch.setattr(distmod, "level_depths", patched)


class TestBuildAf:
    def test_rank_and_x2_column(self):
        af = build_af(Q, 4)
        assert af.rank == 4
        x2 = x_operator(af, 2)
        col = x2.column(af.index[xi(1, 2)])
        expected = [0] * 4
        expected[af.index[xi(1, 4)]] = 1
        expected[af.index[xi(3, 4)]] = 1
        assert list(col) == expected

    def test_unit_level(self):
        af = build_af(Q, 1)
        assert af.rank == 1
        assert af.primes == ()

    def test_ff_level_t(self):
        af = build_af(F3, T)
        assert af.rank == 3

    def test_boundary_uses_nu(self):
        af = build_af(Q, 4, {2: -1})
        x2 = x_operator(af, 2)
        j = af.index[xi(1, 4)]  # order 4 = boundary layer for p = 2
        assert x2.column(j)[j] == -1

    def test_operators_commute_with_group(self):
        af = build_af(Q, 12)
        ops = {name: af.operators.operator(name) for name in af.operators.maps}
        for name_a in ops:
            for name_b in ops:
                assert ops[name_a] * ops[name_b] == ops[name_b] * ops[name_a]


class TestUModule:
    def test_u4_rank_2(self):
        u = u_module(build_af(Q, 4))
        assert u.rank == 2

    def test_u1_is_z(self):
        u = u_module(build_af(Q, 1))
        assert u.rank == 1

    def test_ff_t_rank_2(self):
        u = u_module(build_af(F3, T))
        assert u.rank == 2

    def test_rank_is_phi_for_a_spread_of_levels(self):
        phi = lambda n: sum(1 for a in range(1, n + 1) if __import__("math").gcd(a, n) == 1)
        for f in (2, 3, 6, 8, 9, 10, 12, 15):
            u = u_module(build_af(Q, f))
            assert u.rank == phi(f)

    def test_x_induces_nu_scalar(self):
        # in U(f) every X_p acts as multiplication by nu_p
        for f, nu in ((4, {}), (12, {2: -1, 3: 2}), (9, {3: 5})):
            af = build_af(Q, f, nu)
            u = u_module(af)
            for p in af.primes:
                induced = dense(induced_operator(u, x_op_name(Q, p)))
                assert induced == IntMatrix.identity(u.rank).scale(nu.get(p, 1))

    def test_gamma_has_sign_order(self):
        u = u_module(build_af(Q, 12))
        g = induced_operator(u, "gamma0")
        assert g * g == SparseMatrix.identity(u.rank)

    def test_nonunit_nu_still_free(self):
        u = u_module(build_af(Q, 4, {2: 0}))
        assert u.rank == 2

    def test_induce_rejects_bad_operator(self):
        u = u_module(build_af(Q, 4))
        bad = sparse(IntMatrix([[0, 1, 0, 0]] + [[0] * 4] * 3))
        with pytest.raises(InducedOperatorUndefined):
            checked_induce(u, bad)

    def test_composite_relations_vanish(self):
        # nu_g xi - sum over the Y_g fiber dies in U for every divisor g | f
        from uod.arith import fiber_map

        for f, nu in ((12, {}), (12, {2: -1, 3: 3})):
            af = build_af(Q, f, nu)
            u = u_module(af)
            for g in Q.divisors(f):
                if g == 1:
                    continue
                fibers = fiber_map(Q, g, f)
                for target in xi_classes(Q, f // g):
                    vec = [0] * af.rank
                    vec[af.index[target]] += nu_value(Q, nu, g)
                    for eta in fibers[target]:
                        vec[af.index[eta]] -= 1
                    assert all(v == 0 for v in u.reduce_vector(vec))


def dense_u_projection(af, basis_classes):
    """Projection of A(f) onto the span of ``basis_classes`` along the
    relations, computed the dense way: SNF of [section | image_basis(rel)]."""
    section = IntMatrix.from_columns(
        [[1 if i == af.index[c] else 0 for i in range(af.rank)] for c in basis_classes],
        rows=af.rank,
    )
    w = section.hstack(image_basis(dense(distribution_relations(af))))
    res = snf(w)
    assert w.rows == w.cols and all(d == 1 for d in res.invariants)
    return (res.right * res.left).submatrix(range(len(basis_classes)), range(af.rank))


SPARSE_CASES = [
    pytest.param(Q, f, nu, id=f"Q-{f}-{nu}")
    for f in (1, 4, 12, 36, 60, 140)
    for nu in ({}, {2: 0, 3: 5}, {2: -1, 3: 2})
] + [
    pytest.param(F3, T, {}, id="F3-T"),
    pytest.param(F3, F3.mul(T, (1, 1)), {}, id="F3-T(T+1)"),
    pytest.param(F3, F3.power(T, 2), {T: -1}, id="F3-T^2-nu-1"),
    pytest.param(F5, T, {}, id="F5-T"),
    pytest.param(F5, F5.mul(T, (1, 1)), {T: 2}, id="F5-T(T+1)-nu2"),
]


class TestUModuleCertificate:
    @pytest.mark.parametrize("bk, f, nu", SPARSE_CASES)
    def test_projection_matches_dense_reference(self, bk, f, nu):
        af = build_af(bk, f, nu)
        u = u_module(af)
        assert dense(u.projection) == dense_u_projection(af, u.basis_classes)
        assert u.projection * u.section == SparseMatrix.identity(u.rank)
        assert (u.projection * u.relations).is_zero()
        assert u.rank == len(af.group)

    def test_non_complement_basis_raises(self, monkeypatch):
        # Swap a depth-zero class of order 4 for [1/2]: the relation at [0]
        # is [0] - ([0] + [1/2]) = -[1/2], so [1/2] lies in the relation
        # lattice and the swapped set cannot complement it.
        af = build_af(Q, 4)
        true_depth = distmod.depth
        xi0 = [c for c in af.basis if true_depth(Q, c) == 0 and c.order == 4]
        out, into = xi0[0], xi(1, 2)
        assert true_depth(Q, into) > 0

        override_depths(monkeypatch, {out: 1, into: 0})
        with pytest.raises(BasisCertificateFailed):
            u_module(af)

    def test_wrong_basis_size_raises_structure_error(self, monkeypatch):
        monkeypatch.setattr(distmod, "level_depths", lambda bk, f: (0,) * len(xi_classes(bk, f)))
        with pytest.raises(StructureCheckFailed, match="Xi_0"):
            u_module(build_af(Q, 4))

    def test_torsion_quotient_raises_structure_error(self, monkeypatch):
        doubled = lambda af: sparse(dense(distribution_relations(af)).scale(2))
        monkeypatch.setattr(distmod, "distribution_relations", doubled)
        with pytest.raises(StructureCheckFailed, match="computed as"):
            u_module(build_af(Q, 4))

    def test_failed_peel_on_a_free_module(self, monkeypatch, capsys):
        # U(12) is free of rank 4, so a peel that finds no order is reported
        # as an uncertified basis, not as a refutation, and exits 3
        def no_order(rel, keep):
            raise znf.NotAComplement("row 0 is not peeled by a unit pivot")

        monkeypatch.setattr(distmod, "complement_projection", no_order)
        with pytest.raises(BasisCertificateFailed,
                           match=r"triangular peel found no unit pivot order.*does not by "
                                 r"itself refute the basis \(U\(f\) is free of rank 4\)$"):
            u_module(build_af(Q, 12))
        assert main(["structure", "--f", "12"]) == 3
        err = capsys.readouterr().err
        assert "triangular peel" in err and "does not by itself refute" in err

    def test_no_smith_reduction(self, monkeypatch):
        # the direct route certifies U(f) by the sparse elimination alone
        def refuse(*_args):
            raise AssertionError("u_module ran a Smith reduction")

        monkeypatch.setattr(znf, "_run_smith", refuse)
        assert u_module(build_af(Q, 60)).rank == 16
        assert u_module(build_af(F3, F3.mul(T, (1, 1)))).rank == 4


INDUCE_CASES = [
    pytest.param(Q, f, {}, id=f"Q-{f}") for f in (12, 60, 140, 308)
] + [
    pytest.param(Q, 148, {2: -1, 37: 3}, id="Q-148-nu"),
    pytest.param(F3, F3.mul(F3.power(T, 2), (1, 1)), {}, id="F3-T^2(T+1)"),
    pytest.param(F5, F5.mul(T, (1, 1)), {T: 2}, id="F5-T(T+1)-nu2"),
]


class TestRelationCertificate:
    """u_module induces A(f)'s operators with no P (op R) product: the
    relations are certified, whenever a UModule is built, to be the columns
    of the nu_p - X_p, with which every certified operator commutes."""

    @pytest.mark.parametrize("bk, f, nu", INDUCE_CASES)
    def test_induced_operators_match_the_checked_induce(self, bk, f, nu):
        af = build_af(bk, f, nu)
        u = u_module(af)
        for name in af.operators.maps:
            assert induced_operator(u, name) == checked_induce(u, af.operators.operator(name)), name

    def test_no_product_with_the_projection(self, monkeypatch):
        # the checked induce multiplies op by the relations; u_module never does
        cases = [build_af(Q, 60), build_af(F3, F3.mul(T, (1, 1)))]
        relations = [distribution_relations(af) for af in cases]
        real = SparseMatrix.__mul__

        def spy(a, b):
            assert all(b != rel for rel in relations), "u_module ran the checked induce"
            return real(a, b)

        monkeypatch.setattr(SparseMatrix, "__mul__", spy)
        for af, rank in zip(cases, (16, 4)):
            u = u_module(af)
            assert u.rank == rank
            for name in af.operators.maps:
                induced_operator(u, name)

    @staticmethod
    def relations_with(monkeypatch, edit):
        true_relations = distmod.distribution_relations
        monkeypatch.setattr(distmod, "distribution_relations",
                            lambda af: SparseMatrix(af.rank, edit(true_relations(af).entries)))

    @pytest.mark.parametrize("bk, f", [(Q, 12), (Q, 60), (F3, F3.mul(T, (1, 1)))])
    def test_relation_off_the_nu_minus_x_is_refused_when_built(self, bk, f):
        # one relation column with one entry moved by 1: the UModule's own
        # certificate refuses it, whether built directly or by replace
        af = build_af(bk, f)
        u = u_module(af)
        cols = [dict(col) for col in u.relations.entries]
        i = next(iter(cols[0]))
        cols[0][i] += 1
        bad = SparseMatrix(u.relations.rows, cols)
        with pytest.raises(StructureCheckFailed, match="nu_p - X_p"):
            UModule(relations=bad, projection=u.projection, section=u.section, parent=af,
                    basis_classes=u.basis_classes)
        with pytest.raises(StructureCheckFailed, match="nu_p - X_p"):
            dataclasses.replace(u, relations=bad)

    def test_negated_relation_column_is_refused(self, monkeypatch):
        # -(nu_p - X_p) e_xi spans the same lattice, so the peel and the
        # projection are unchanged and only the certificate can see it
        self.relations_with(monkeypatch, lambda cols: [
            {i: -v for i, v in cols[0].items()}, *cols[1:]])
        with pytest.raises(StructureCheckFailed, match="nu_p - X_p"):
            u_module(build_af(Q, 12))

    def test_extra_relation_column_is_refused(self, monkeypatch):
        def with_sum(cols):
            total = dict(cols[0])
            for i, v in cols[1].items():
                total[i] = total.get(i, 0) + v
            return [*cols, total]

        self.relations_with(monkeypatch, with_sum)
        with pytest.raises(StructureCheckFailed, match="nu_p - X_p"):
            u_module(build_af(F3, F3.mul(T, (1, 1))))

    def test_zero_columns_are_ignored(self, monkeypatch):
        self.relations_with(monkeypatch, lambda cols: [{}, *cols, {}])
        assert u_module(build_af(Q, 12)).rank == 4


def monic_levels(bk, max_degree):
    """Every monic polynomial of degree 1 .. max_degree over F_q."""
    return [low + (1,) for d in range(1, max_degree + 1)
            for low in itertools.product(range(bk.q), repeat=d)]


class TestPeelCoverage:
    """The peel has no fallback, so it must certify every level in use."""

    def test_q_levels_up_to_200(self):
        for f in range(2, 201):
            assert u_module(build_af(Q, f)).rank == len(arith.gf_group(Q, f)), f

    @pytest.mark.parametrize("f", [12, 36, 60])
    def test_nu_grid(self, f):
        primes = [p for p, _ in Q.factor(f)]
        for values in itertools.product((-1, 0, 2, 3, 5), repeat=len(primes)):
            nu = dict(zip(primes, values))
            assert u_module(build_af(Q, f, nu)).rank == len(arith.gf_group(Q, f)), nu

    @pytest.mark.parametrize("bk", [F3, F5], ids=["F3", "F5"])
    def test_function_field_levels_up_to_degree_3(self, bk):
        for f in monic_levels(bk, 3):
            assert u_module(build_af(bk, f)).rank == len(arith.gf_group(bk, f)), f


F2 = FunctionFieldBackend(2)
# q = 4, 8 and 9 have p < q, so each coefficient's code holds several base-p
# digits of the residue key
FF_TABLE_LEVELS = [(F2, 4), (F3, 3), (F5, 2)]
FF_TABLE_LEVELS += [(FunctionFieldBackend(q), 2) for q in (4, 7, 8, 9)]
FF_TABLE_IDS = ["F2", "F3", "F5", "F4", "F7", "F8", "F9"]


def held_matrices(obj) -> list:
    """The attributes of ``obj`` that are a ``SparseMatrix`` or a dict,
    list or tuple holding one."""
    def holds(value):
        if isinstance(value, SparseMatrix):
            return True
        if isinstance(value, dict):
            value = list(value.values())
        return isinstance(value, (list, tuple)) and any(map(holds, value))

    return sorted(name for name, value in vars(obj).items() if holds(value))


class TestOperatorsOnRead:
    """Each operator is held once, as its certified map: neither A(f) nor
    U(f) keeps an operator matrix, and U(f) induces only the operators a
    command reads."""

    @pytest.mark.parametrize("bk, f", [(Q, 60), (F3, F3.mul(T, (1, 1)))])
    def test_no_operator_matrix_is_held(self, bk, f):
        af = build_af(bk, f)
        u = u_module(af)
        for name in af.operators.maps:
            induced_operator(u, name)
        assert held_matrices(af.operators) == []
        assert held_matrices(u) == ["projection", "relations", "section"]

    @pytest.mark.parametrize("argv, induced", [
        (["structure", "--f", "60"], 0),
        (["verify", "uprime", "--f", "60"], 0),
        (["sign-homology", "--f", "60"], 1),
        (["tower", "--f", "6", "--level", "1"], 1),
        (["tower", "--f", "6", "--level", "3"], 3),
    ], ids=["structure", "uprime", "sign-homology", "tower-1", "tower-3"])
    def test_a_command_induces_only_what_it_reads(self, monkeypatch, capsys, argv, induced):
        calls = []
        real = znf.FreeQuotient.induce_preserving
        monkeypatch.setattr(znf.FreeQuotient, "induce_preserving",
                            lambda q, op: calls.append(op.rows) or real(q, op))
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == induced


class TestLevelTables:
    """A(f) on the per-level residue tables against the class-by-class
    reference of ``dense_reference.reference_af``, and the per-level depths
    against ``partition_tag``."""

    @staticmethod
    def assert_matches_reference(bk, f, nu=None):
        af = build_af(bk, f, nu)
        ref = reference_af(bk, f, nu)
        assert af.basis == ref.basis
        assert list(af.operators.maps) == list(ref.operators)
        for name, op in ref.operators.items():
            assert af.operators.operator(name) == op, (f, name)
        assert af.operators.nu == {x_op_name(bk, p): (nu or {}).get(p, 1) for p in af.primes}
        fibers = {
            p: {af.basis[i]: tuple(af.basis[j] for j in js) for i, js in by_position.items()}
            for p, by_position in af.fibers.items()
        }
        assert fibers == ref.fibers
        assert distribution_relations(af) == ref.relations

    def test_q_levels_up_to_200(self):
        for f in range(1, 201):
            self.assert_matches_reference(Q, f)

    @pytest.mark.parametrize("nu", [{2: 0, 3: 5}, {2: -1, 3: 2}, {3: 0}])
    def test_nu_values(self, nu):
        for f in (12, 36, 60):
            self.assert_matches_reference(Q, f, nu)

    @pytest.mark.parametrize("bk, degree", FF_TABLE_LEVELS, ids=FF_TABLE_IDS)
    def test_function_field_levels(self, bk, degree):
        for f in monic_levels(bk, degree):
            self.assert_matches_reference(bk, f)
        self.assert_matches_reference(bk, bk.mul(T, (1, 1)), {T: 0})

    def test_depths_match_the_partition_tags_up_to_400(self):
        for f in range(1, 401):
            depths = distmod.level_depths(Q, f)
            assert depths == tuple(partition_tag(Q, c).depth for c in xi_classes(Q, f)), f

    @pytest.mark.parametrize("bk, degree", FF_TABLE_LEVELS, ids=FF_TABLE_IDS)
    def test_function_field_depths_match_the_partition_tags(self, bk, degree):
        for f in monic_levels(bk, degree):
            depths = distmod.level_depths(bk, f)
            assert depths == tuple(partition_tag(bk, c).depth for c in xi_classes(bk, f)), f

    def test_fiber_missing_a_class_is_refused(self):
        af = build_af(Q, 12)
        fibers = dict(af.fibers[2])
        i = min(fibers)
        fibers[i] = fibers[i][:-1]
        with pytest.raises(StructureCheckFailed, match=r"fiber over .* has 1 elements, expected 2"):
            distmod._check_fiber_sums(af.table, {**af.fibers, 2: fibers})

    def test_misdirected_group_column_is_refused(self):
        # position 0 of a group element's map moved onto the image of
        # position 1: column 0 empties into column 1
        af = build_af(Q, 12)
        name = next(n for n in af.operators.maps if n.startswith("G["))
        y = list(af.operators.maps[name].images)
        y[0] = y[1]
        with pytest.raises(NonCommutingOperators):
            with_operator(af.operators, name, MapOperator(tuple(y)))


class TestBlockTable:
    """The divisor-block class table, the unit sieve and the linear digit
    kernel against the per-residue constructions they replaced."""

    @staticmethod
    def assert_table_matches_reference(bk, f):
        table = arith.level_table(bk, f)
        ref = reference_table(bk, f)
        assert table.classes == tuple(xi for xi, _ in ref), f
        assert table.residues == tuple(a for _, a in ref), f
        assert table.keys == tuple(bk.residue_key(a) for _, a in ref), f
        for g in bk.divisors(f):
            assert table.inside(g) == tuple(
                i for i, a in enumerate(table.residues) if bk.divides(g, a)), (f, g)

    @staticmethod
    def assert_images_are_residue_products(bk, f):
        # every X_p, every group generator and gamma0 of A(f)
        table = arith.level_table(bk, f)
        multipliers = [p for p, _ in bk.factor(f)]
        multipliers += [g.residue for g in arith.gf_group(bk, f).generators()]
        multipliers.append(arith.sign_group(bk, f).gamma.residue)
        for c in multipliers:
            want = [table.position[bk.residue_mul(c, a, f)] for a in table.residues]
            assert table.images(c) == want, (f, c)

    def test_q_levels_up_to_400(self):
        for f in range(1, 401):
            assert Q.units(f) == [a for a in Q.residues(f) if Q.coprime(a, f)], f
            self.assert_table_matches_reference(Q, f)
            self.assert_images_are_residue_products(Q, f)

    @pytest.mark.parametrize("bk, degree", FF_TABLE_LEVELS, ids=FF_TABLE_IDS)
    def test_function_field_levels(self, bk, degree):
        for f in [bk.one] + monic_levels(bk, degree):
            units = sorted((a for a in bk.residues(f) if bk.coprime(a, f)), key=bk.residue_key)
            assert bk.units(f) == units, f
            assert arith.gf_group(bk, f).elements == tuple(
                arith.GfElement(bk.key, f, u) for u in units), f
            self.assert_table_matches_reference(bk, f)
            self.assert_images_are_residue_products(bk, f)

    @pytest.mark.parametrize("q, f", [(3, "T^7+T"), (5, "T^4+T^3+2"), (8, "T^3+T"), (9, "T^3+T")])
    def test_deeper_function_field_levels(self, q, f):
        bk = FunctionFieldBackend(q)
        f = bk.parse_ideal(f)
        self.assert_table_matches_reference(bk, f)
        self.assert_images_are_residue_products(bk, f)


class TestSparseOperators:
    @pytest.mark.parametrize("bk, f", [(Q, 60), (F3, F3.mul(F3.power(T, 2), (1, 1)))],
                             ids=["Q-60", "F3-T^2(T+1)"])
    def test_no_dense_square_matrix(self, monkeypatch, bk, f):
        # build_af and u_module keep A(f) and the induced operators sparse:
        # no IntMatrix is built at all
        shapes = []

        def record(m):
            shapes.append((m.rows, m.cols))
            return m

        init, mul = IntMatrix.__init__, IntMatrix.__mul__
        from_columns, trusted = IntMatrix.from_columns.__func__, dense_reference._trusted

        def spy_init(m, *args, **kwargs):
            init(m, *args, **kwargs)
            record(m)

        monkeypatch.setattr(IntMatrix, "__init__", spy_init)
        monkeypatch.setattr(IntMatrix, "__mul__", lambda a, b: record(mul(a, b)))
        monkeypatch.setattr(IntMatrix, "from_columns",
                            classmethod(lambda cls, *a, **k: record(from_columns(cls, *a, **k))))
        monkeypatch.setattr(dense_reference, "_trusted",
                            lambda data, cols: record(trusted(data, cols)))
        u = u_module(build_af(bk, f))
        for name in u.parent.operators.maps:
            induced_operator(u, name)
        assert u.parent.rank > len(u.parent.group)
        assert shapes == []

    def swap(self, af, a, b):
        """The class map exchanging the classes a and b."""
        images = list(af.basis)
        images[af.index[a]], images[af.index[b]] = b, a
        return class_matrix(images, af.index)

    def test_injected_noncommuting_operator_raises(self):
        # the swap of two classes as a map: a transposition is its own
        # inverse, so Op of it is the class map's matrix
        af = build_af(Q, 12)
        images = list(range(af.rank))
        i, j = af.index[xi(1, 12)], af.index[xi(1, 6)]
        images[i], images[j] = j, i
        bad = MapOperator(tuple(images))
        assert bad.matrix() == self.swap(af, xi(1, 12), xi(1, 6))
        with pytest.raises(NonCommutingOperators):
            with_operator(af.operators, "bad", bad)

    def test_class_map_off_the_relation_lattice_raises(self):
        af = build_af(Q, 12)
        u = u_module(af)
        with pytest.raises(InducedOperatorUndefined):
            checked_induce(u, self.swap(af, xi(1, 12), xi(1, 6)))

    @staticmethod
    def with_gamma(af, gamma):
        """U(f) of ``af`` with gamma0 replaced by ``gamma``, whose
        commutation ``with_operator`` certifies."""
        return u_module(dataclasses.replace(af, operators=with_operator(af.operators, "gamma0", gamma)))

    def test_gamma_of_infinite_order_raises(self):
        # 2 times the identity, 1 + Op(id), commutes with every operator, so
        # only the order certificate, on gamma0's map, can reject it
        af = build_af(Q, 12)
        doubling = MapOperator(tuple(range(af.rank)), shift=1)
        with pytest.raises(OrderViolation, match="not a permutation"):
            sign_homology_U(Q, 12, u=self.with_gamma(af, doubling))

    def test_gamma_of_the_wrong_order_raises(self):
        # the unit 3 generates (Z/7)^x: its permutation commutes with every
        # operator of A(7) and has order 6, past the sign order 2
        af = build_af(Q, 7)
        unit = af.operators.maps["G[3]"]
        u = self.with_gamma(af, unit)
        tate_pair(u, unit, 6)
        with pytest.raises(OrderViolation, match="length 6, which does not divide 2"):
            sign_homology_U(Q, 7, u=u)


MOVED_IMAGE_CASES = [
    pytest.param(Q, 12, id="Q-12"),
    pytest.param(Q, 60, id="Q-60"),
    pytest.param(F3, F3.mul(T, (1, 1)), id="F3-T^2+T"),
]


class TestXMaps:
    """X_p is the fiber sum of Y_p on positions, completed by nu_p off its
    image; the map is certified, and the matrix is built from it."""

    @pytest.mark.parametrize("bk, f", MOVED_IMAGE_CASES)
    def test_one_moved_image_raises(self, bk, f):
        af = build_af(bk, f)
        for p in af.primes:
            name = x_op_name(bk, p)
            y = list(af.operators.maps[name].images)
            k = next(i for i, c in enumerate(af.basis) if c.order == f)
            y[k] = next(i for i in af.table.inside(p) if i != y[k])
            with pytest.raises(NonCommutingOperators, match=re.escape(repr(name))):
                with_operator(af.operators, name, MapOperator(tuple(y), af.nu.get(p, 1)))

    def test_a_polynomial_in_x_is_accepted_next_to_it(self):
        # 1 - X_2 on A(6) is on X_2's own map, which is not onto, with the
        # same nu: the two commute as polynomials in X_2
        af = build_af(Q, 6)
        x2 = af.operators.maps[x_op_name(Q, 2)]
        koszul = MapOperator(x2.images, 1, shift=1, scale=-1)
        assert set(x2.images) != set(range(af.rank))
        module = with_operator(af.operators, "koszul[2]", koszul)
        x, k = dense(module.operator(x_op_name(Q, 2))), dense(module.operator("koszul[2]"))
        assert x * k == k * x

    @pytest.mark.parametrize("bk, f", MOVED_IMAGE_CASES)
    def test_the_matrix_is_the_maps(self, bk, f):
        af = build_af(bk, f)
        for name, op in af.operators.maps.items():
            assert af.operators.operator(name) == op.matrix()
        for p in af.primes:
            y = af.operators.maps[x_op_name(bk, p)].images
            assert set(y) == set(af.table.inside(p))

    def test_an_image_off_the_inside_is_refused(self, monkeypatch):
        # Y_2 at level 12 moved so that the class 1/12 maps to 1/12, a
        # position outside Xi(6)
        af = build_af(Q, 12)
        table = af.table
        real = table.y_images
        k = af.index[xi(1, 12)]

        def moved(g):
            images = real(g)
            return images[:k] + (k,) + images[k + 1:] if g == 2 else images

        monkeypatch.setattr(table, "y_images", moved)
        with pytest.raises(StructureCheckFailed, match="does not map Xi"):
            build_af(Q, 12)


class TestPartition:
    def test_identity_class_has_full_depth(self):
        tag = partition_tag(Q, xi(1, 12))
        assert tag.depth == 2  # both kernel components trivial

    def test_zero_class(self):
        tag = partition_tag(Q, xi(0, 1))
        assert tag.depth == 0

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            partition_tag(Q, xi(1, 5), context_level=12)

    def test_counting_lemma_archimedean(self):
        phi = lambda n: sum(1 for a in range(1, n + 1) if __import__("math").gcd(a, n) == 1)
        for f in (1, 2, 3, 4, 8, 9, 12, 15, 16, 24, 36):
            assert len(xi0_set(Q, f)) == phi(f)

    def test_counting_lemma_ff(self):
        for f in (T, (1, 1), F3.mul(T, (1, 1)), F3.mul(T, T)):
            group_order = len(__import__("uod.arith", fromlist=["gf_group"]).gf_group(F3, f))
            assert len(xi0_set(F3, f)) == group_order

    def test_decomposition_multiplies_back(self):
        for f in (12, 16, 45):
            for cls in xi_classes(Q, f):
                if cls.order != f:
                    continue
                tag = partition_tag(Q, cls)
                prod = tag.sigma_lift.residue
                for kappa in tag.kappas.values():
                    prod = Q.residue_mul(prod, kappa.residue, f)
                assert prod == cls.num

    def test_property_one_exhaustive(self):
        # depth-lowering: some p | f sends all other fiber mates of a deep
        # class down a level or out to Xi(f/p)
        for f in (4, 8, 9, 12, 16, 18, 24):
            for cls in (c for c in xi_classes(Q, f) if c.order == f):
                k = depth(Q, cls)
                if k == 0:
                    continue
                found = False
                for p in (p for p, _ in Q.factor(f)):
                    image = y_map(Q, p, cls)
                    from uod.arith import y_fiber

                    fiber = y_fiber(Q, p, image, f)
                    ok = all(
                        eta == cls
                        or xi_in_level(Q, eta, f // p)
                        or depth(Q, eta) == k - 1
                        for eta in fiber
                    )
                    if ok:
                        found = True
                        break
                assert found, (f, cls, k)

    def test_property_two_sign_freeness(self):
        # gamma_0 stabilizes and acts freely on depth-zero classes above the
        # base level (archimedean f = 2 mod 4 excluded)
        for f, top in ((3, 27), (4, 16), (5, 25), (12, 144)):
            base_classes = set(xi_classes(Q, f))
            got = [
                c
                for c in xi_classes(Q, top)
                if c not in base_classes and depth(Q, c) == 0
            ]
            for c in got:
                moved = sign_action(Q, c)
                assert depth(Q, moved) == 0 and moved not in base_classes
                assert moved != c

    def test_property_two_fails_for_two_mod_four(self):
        # the flagged exception is real: above f = 2 the sign action does not
        # stabilize the depth-zero set
        base_classes = set(xi_classes(Q, 2))
        layer = [
            c for c in xi_classes(Q, 8) if c not in base_classes and depth(Q, c) == 0
        ]
        stable = all(depth(Q, sign_action(Q, c)) == 0 for c in layer)
        assert not stable

    def test_property_two_ff(self):
        t3 = F3.power(T, 3)
        base = set(xi_classes(F3, T))
        for c in xi_classes(F3, t3):
            if c in base or depth(F3, c) != 0:
                continue
            moved = sign_action(F3, c)
            assert moved != c and depth(F3, moved) == 0


class TestXi0Basis:
    """xi0_basis returns only when both certificates hold; every failure
    raises BasisCertificateFailed."""

    def test_unit_level(self):
        basis = xi0_basis(build_af(Q, 1))
        assert len(basis.classes) == 1

    def test_f4(self):
        basis = xi0_basis(build_af(Q, 4))
        assert len(basis.classes) == 2

    def test_f12(self):
        basis = xi0_basis(build_af(Q, 12))
        assert len(basis.classes) == 4

    def test_ff(self):
        af = build_af(F3, F3.mul(T, (1, 1)))
        basis = xi0_basis(af)
        assert len(basis.classes) == len(af.group)

    def test_general_nu(self):
        # the monomial and quotient bases do not depend on invertibility of nu
        for nu in ({2: 0, 3: 5}, {2: -1, 3: 2}):
            basis = xi0_basis(build_af(Q, 12, nu))
            assert len(basis.classes) == 4

    def test_no_transform(self, monkeypatch):
        # no Smith reduction can track a transform, and both certificates
        # stay in the sparse stage: none reaches the dense reduction at all
        dense = znf._run_smith
        requested = []

        def spy(m):
            requested.append(m)
            return dense(m)

        monkeypatch.setattr(znf, "_run_smith", spy)
        for bk, f in ((Q, 60), (F3, F3.mul(T, (1, 1)))):
            af = build_af(bk, f)
            basis = xi0_basis(af)
            assert len(basis.classes) == len(af.group)
        assert not any(requested)

    def test_swapped_basis_raises(self, monkeypatch):
        # trading the depth-zero class [3/8] for the deeper [1/8] of the same
        # order keeps |Xi_0| at every level, but the images of the new set
        # miss a direction of U(8)
        true_depth = distmod.depth
        out, into = xi(3, 8), xi(1, 8)
        assert true_depth(Q, out) == 0 and true_depth(Q, into) > 0

        override_depths(monkeypatch, {out: 1, into: 0})
        with pytest.raises(BasisCertificateFailed, match=r"quotient 3 units and \(0,\)$"):
            xi0_basis(build_af(Q, 8))

    def test_free_quotient_not_generated_raises(self, monkeypatch):
        # U = Z^4 / <[1/2], [0] + [3/4]> is free of rank 2, but [0] and [3/4]
        # map to +-the same class, so they miss [1/4]; the monomial lattice
        # certificate does not read the relations and still passes
        def relations(af):
            cols = [[0] * af.rank for _ in range(2)]
            cols[0][af.index[xi(1, 2)]] = 1
            cols[1][af.index[xi(0, 1)]] = cols[1][af.index[xi(3, 4)]] = 1
            return sparse(IntMatrix.from_columns(cols, rows=af.rank))

        monkeypatch.setattr(distmod, "distribution_relations", relations)
        with pytest.raises(BasisCertificateFailed, match=r"lattice 4 units, quotient 1 unit and \(0,\)$"):
            xi0_basis(build_af(Q, 4))

    @pytest.mark.parametrize("torsion", ["extra", "doubled"])
    def test_torsion_in_the_quotient_raises(self, monkeypatch, torsion):
        # Xi_0 still maps onto a basis of the free part, so only the check
        # that U(f) is free of rank |Xi_0| can fail here
        true_relations = distribution_relations

        def relations(af):
            rel = dense(true_relations(af))
            if torsion == "doubled":
                return sparse(rel.scale(2))
            col = [0] * af.rank
            col[af.index[xi(3, 4)]] = 2
            return sparse(rel.hstack(IntMatrix.from_columns([col], rows=af.rank)))

        monkeypatch.setattr(distmod, "distribution_relations", relations)
        # U(f) is not free, so the diagnosis reports U(f)/<Xi_0>: the two
        # Xi_0 images generate U(f) = Z + Z/2 under the extra relation, and
        # miss (Z/2)^2 of it when every relation is doubled
        message = {
            "extra": r"U\(f\)/<Xi_0> is 0; U\(f\) is Z \+ Z/2, not Z\^2$",
            "doubled": r"U\(f\)/<Xi_0> is Z/2 \+ Z/2; U\(f\) is Z\^2 \+ Z/2 \+ Z/2, not Z\^2$",
        }[torsion]
        with pytest.raises(BasisCertificateFailed, match=message):
            xi0_basis(build_af(Q, 4))


F3_DEGREE_3 = (0, 1, 0, 1)  # T^3 + T = T (T^2 + 1), two primes


class TestLemma411:
    @pytest.mark.parametrize("f", [*range(2, 37), 240, 288, 360, 432, 600, 648])
    def test_counts_match_the_class_reference_q(self, f):
        assert lemma411_counts(Q, f) == lemma411_reference_counts(Q, f)
        assert lemma411_counts(Q, f) == (len(Q.factor(f)) * len(arith.gf_group(Q, f)), 0)

    def test_counts_match_the_class_reference_f3(self):
        levels = [f for d in (1, 2) for f in itertools.product(range(3), repeat=d)]
        levels = [(*f, 1) for f in levels] + [F3_DEGREE_3]
        for f in levels:
            checked, failures = lemma411_counts(F3, f)
            assert (checked, failures) == lemma411_reference_counts(F3, f), f
            assert checked == len(F3.factor(f)) * len(arith.gf_group(F3, f)) and not failures, f

    @staticmethod
    def report(tmp_path, argv):
        out = tmp_path / "report.json"
        code = main(["verify", "lemma411", *argv, "--out", str(out)])
        [check] = json.loads(out.read_text())["checks"]
        return code, check

    @pytest.mark.parametrize("bk, f, argv", [
        (Q, 12, ["--f", "12"]),
        (Q, 360, ["--f", "360"]),
        (F3, F3_DEGREE_3, ["--backend", "fq", "--q", "3", "--f", "T^3+T"]),
    ])
    def test_a_moved_fiber_position_fails(self, monkeypatch, tmp_path, bk, f, argv):
        # a copy of the level table in which a class of exact order f moved
        # from its Y_p fiber to another one; the real table stays as it is
        real = arith.level_table(bk, f)
        p = bk.factor(f)[0][0]
        fibers = dict(real.fibers(p))
        moved = next(i for i, xi in enumerate(real.classes) if xi.order == f)
        first = next(i for i, js in fibers.items() if moved in js)
        second = next(i for i in fibers if i != first)
        fibers[first] = tuple(j for j in fibers[first] if j != moved)
        fibers[second] = tuple(sorted(fibers[second] + (moved,)))
        fake = copy.copy(real)
        fake._fibers = {**real._fibers, bk.ideal_key(p): fibers}
        monkeypatch.setattr(distmod, "level_table", lambda _bk, _f: fake)
        assert lemma411_counts(bk, f)[1] > 0
        code, check = self.report(tmp_path, argv)
        assert code == 1 and check["verdict"] == "FAIL"
        assert check["tables"]["failures"] > 0

    @pytest.mark.parametrize("bk, f, argv", [
        (Q, 12, ["--f", "12"]),
        (Q, 648, ["--f", "648"]),
        (F3, F3_DEGREE_3, ["--backend", "fq", "--q", "3", "--f", "T^3+T"]),
    ])
    def test_a_wrong_kernel_residue_fails(self, monkeypatch, tmp_path, bk, f, argv):
        # one kernel residue of the first prime swapped for a unit outside
        # the kernel
        real = distmod.level_partition(bk, f)
        p = bk.factor(f)[0][0]
        kernel = set(real.kernels[p])
        outside = next(e.residue for e in arith.gf_group(bk, f) if e.residue not in kernel)
        kernel.remove(max(kernel, key=bk.residue_key))
        kernel.add(outside)
        fake = types.SimpleNamespace(kernels={**real.kernels, p: frozenset(kernel)})
        monkeypatch.setattr(distmod, "level_partition", lambda _bk, _f: fake)
        code, check = self.report(tmp_path, argv)
        assert code == 1 and check["verdict"] == "FAIL"
        assert check["tables"]["failures"] > 0

    def test_f3_p3(self):
        report = lemma411_check(Q, 3, 3, xi(1, 3))
        assert report.equal and report.multiplicity == 1
        assert sum(report.lhs.values()) == 3

    def test_f4_p2(self):
        report = lemma411_check(Q, 2, 4, xi(1, 4))
        assert report.equal and report.multiplicity == 2
        assert set(report.lhs) == {xi(1, 4), xi(3, 4)}

    def test_ff(self):
        report = lemma411_check(F3, T, T, xi_from_fraction(F3, (1,), T))
        assert report.equal

    def test_exhaustive_small(self):
        for f in range(2, 25):
            for p, _ in Q.factor(f):
                for cls in (c for c in xi_classes(Q, f) if c.order == f):
                    assert lemma411_check(Q, p, f, cls).equal, (f, p, cls)

    def test_wrong_order_rejected(self):
        with pytest.raises(OrderMismatch):
            lemma411_check(Q, 2, 4, xi(1, 2))


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty every per-level cache for one test; the old ones come back after."""
    for module, name in (
        (arith, "_table_cache"),
        (arith, "_group_cache"),
        (distmod, "_partition_cache"),
    ):
        monkeypatch.setattr(module, name, {})


def classes_by_hand(bk, f):
    return sorted(
        {xi_from_fraction(bk, a, f) for a in bk.residues(f)},
        key=lambda c: (bk.ideal_key(c.order), bk.residue_key(c.num)),
    )


def fibers_by_hand(bk, g, f):
    """Y_g fibers of Xi(f) from xi_from_fraction and y_map, with no cache."""
    out = {}
    for eta in classes_by_hand(bk, f):
        out.setdefault(y_map(bk, g, eta), []).append(eta)
    return {image: tuple(etas) for image, etas in out.items()}


class TestLevelCaches:
    @pytest.mark.parametrize("bk, f", [(Q, 60), (F3, F3.mul(T, (1, 1)))])
    def test_fiber_maps_survive_their_readers(self, bk, f):
        af = build_af(bk, f)
        xi0_basis(af)
        u_module(af)
        for g in bk.divisors(f):
            if bk.norm(g) > 1:
                assert arith.fiber_map(bk, g, f) == fibers_by_hand(bk, g, f), g
        assert arith.xi_classes(bk, f) == tuple(classes_by_hand(bk, f))

    def test_lemma411_maps_each_class_once_per_prime(self, cold_caches, monkeypatch, tmp_path):
        # the check maps all of Xi(f) once per prime through the level
        # table, not once per checked class: r passes over |Xi(f)| residues
        # (the Y_p fibers) and no y_map call at all, rather than
        # O(r phi(f) |Xi(f)|) maps
        passes, calls = [], []
        real_images, real_map = arith.LevelTable.images, arith.y_map

        def counting_images(table, c):
            out = real_images(table, c)
            passes.append(len(out))
            return out

        def counting(bk, g, cls):
            calls.append(g)
            return real_map(bk, g, cls)

        monkeypatch.setattr(arith.LevelTable, "images", counting_images)
        monkeypatch.setattr(arith, "y_map", counting)
        # distmod no longer imports y_map: the check never builds a class
        assert not hasattr(distmod, "y_map")
        assert main(["verify", "lemma411", "--f", "72", "--out", str(tmp_path / "r.json")]) == 0
        r, size = 2, 72
        assert passes == [size] * r
        assert calls == []

    @pytest.mark.parametrize(
        "argv, checked",
        [
            (["--f", "36,72,360"], [24, 48, 288]),
            (["--backend", "fq", "--q", "3", "--f", "T^2*(T+1)"], [24]),
        ],
    )
    def test_lemma411_report_is_the_same_cold_and_warm(self, cold_caches, tmp_path, argv, checked):
        out = tmp_path / "report.json"
        reports = []
        for _ in ("cold", "warm"):
            assert main(["verify", "lemma411", *argv, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        tables = [c["tables"] for c in json.loads(reports[0])["checks"]]
        assert tables == [{"checked": n, "failures": 0} for n in checked]


class TestTower:
    def test_stabilization_f3(self):
        report = u_tower(Q, 3, 2)
        assert report.stabilized and not report.exception_flagged

    def test_exception_f2(self):
        report = u_tower(Q, 2, 2)
        assert report.exception_flagged

    def test_ff_t(self):
        report = u_tower(F3, T, 2)
        assert report.stabilized

    def test_transitions_commute_with_gamma(self):
        u1, u2 = (u_module(build_af(Q, 3**k)) for k in (1, 2))
        m = u_inclusion(u1, u2)
        g1 = dense(induced_operator(u1, "gamma0"))
        g2 = dense(induced_operator(u2, "gamma0"))
        assert m * g1 == g2 * m
