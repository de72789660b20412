import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    ChainMap,
    IntMatrix,
    PresentedComplex,
    companion,
    dense,
    euler_characteristic,
    gamma_order_by_powers,
    homology_pair,
    kernel_basis,
    make_complex,
    mapping_cone,
    shift_eq,
    twist,
    validate_double_complex,
    with_operator,
)
from uod import chainkit, znf
from uod.signh import OrderViolation, tate_pair
from uod.znf import AbGroupInvariants, FreeQuotient, SparseMatrix
from uod.chainkit import (
    ActionModule,
    ChainComplex,
    DoubleComplex,
    HomologyTable,
    MapOperator,
    NonCommutingOperators,
    NotAComplex,
    PlusMinusNotZero,
    ShapeMismatch,
    WindowTooSmall,
    build_kt,
    check_plus_minus,
    scalar_kt,
    scalar_kt_complex,
    total_complex,
)

Z = AbGroupInvariants(1)
Z2 = AbGroupInvariants(0, (2,))
ZERO = AbGroupInvariants(0)


def identity_map(n, c=1):
    """c times the identity of Z^n as a map: shift * 1 + Op(id), shift = c - 1."""
    return MapOperator(tuple(range(n)), shift=c - 1)


def trivial_module(operators, nu=None):
    return ActionModule(1, {k: identity_map(1, v) for k, v in operators.items()}, nu)


SWAP = (1, 0)
NORM = MapOperator(SWAP, shift=1)                   # 1 + gamma on Z[C2]
ONE_MINUS = MapOperator(SWAP, shift=1, scale=-1)    # 1 - gamma


def int_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda data: IntMatrix(data, cols=cols))


@st.composite
def torsion_complexes(draw):
    """A random finite free complex: each differential is a kernel basis of
    the one below it times a random integer matrix, so its cokernel in that
    kernel usually has torsion."""
    ranks = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5))
    diffs = [draw(int_matrices(ranks[0], ranks[1]))]
    for i in range(2, len(ranks)):
        k = kernel_basis(diffs[-1])
        diffs.append(k * draw(int_matrices(k.cols, ranks[i])))
    return make_complex(ranks, diffs, bottom_degree=draw(st.integers(-2, 2)))


def per_degree_homology(c):
    return {
        n: homology_pair(dense(c.differential(n)), dense(c.differential(n + 1))).invariants
        for n in c.degrees()
    }


def dense_kt_blocks(ops, plus, minus, window):
    """The Koszul-Tate blocks of ``build_kt`` from dense operators, entry by
    entry: (ranks, horizontal, vertical) keyed by bidegree."""
    r, d = len(ops), plus.rows
    lo, hi = window
    subsets = {m: list(itertools.combinations(range(r), m)) for m in range(r + 1)}
    ranks, horiz, vert = {}, {}, {}
    for m in range(r + 1):
        count = len(subsets[m])
        sign = -1 if m % 2 else 1
        for n in range(lo, hi + 1):
            ranks[(m, n)] = d * count
            op = plus if n % 2 == 0 else minus
            vert[(m, n)] = [[sign * op[a, b] if i == j else 0
                             for j in range(count) for b in range(d)]
                            for i in range(count) for a in range(d)]
        if m == 0:
            continue
        data = [[0] * (d * count) for _ in range(d * len(subsets[m - 1]))]
        for si, subset in enumerate(subsets[m]):
            for pos, i in enumerate(subset):
                ti = subsets[m - 1].index(tuple(x for x in subset if x != i))
                for a in range(d):
                    for b in range(d):
                        data[ti * d + a][si * d + b] += (-1) ** pos * ops[i][a, b]
        for n in range(lo, hi + 1):
            horiz[(m, n)] = data
    return ranks, horiz, vert


def dense_paste_total(ranks, horiz, vert, r, window, keep):
    """Reference total complex: every block pasted cell by cell into dense
    lists.  Returns (ranks, differentials) keyed by total degree."""
    lo, hi = window
    offsets = {}
    for t in range(lo, hi + r + 1):
        off, pos = {}, 0
        for m in range(r + 1):
            if lo <= t - m <= hi and keep(m, t - m):
                off[(m, t - m)] = pos
                pos += ranks[(m, t - m)]
        offsets[t] = off
    total_ranks = {t: sum(ranks[b] for b in off) for t, off in offsets.items()}
    diff = {}
    for t, off in offsets.items():
        if t - 1 not in offsets:
            continue
        below = offsets[t - 1]
        data = [[0] * total_ranks[t] for _ in range(total_ranks[t - 1])]

        def paste(block, r0, c0):
            for i, row in enumerate(block):
                for j, v in enumerate(row):
                    data[r0 + i][c0 + j] += v

        for (m, n), c0 in off.items():
            if (m - 1, n) in below:
                paste(horiz[(m, n)], below[(m - 1, n)], c0)
            if (m, n - 1) in below:
                paste(vert[(m, n)], below[(m, n - 1)], c0)
        diff[t] = IntMatrix(data, cols=total_ranks[t])
    return total_ranks, diff


def ring_element(base: MapOperator, a: int, b: int) -> MapOperator:
    """a + b A for the map A = base, itself a map: (a + b shift) + b Op(y, nu)."""
    if b == 0:
        return identity_map(len(base.images), a)
    return MapOperator(base.images, base.nu, a + b * base.shift, b * base.scale)


def scaled(op: MapOperator, c: int) -> MapOperator:
    return MapOperator(op.images, op.nu, c * op.shift, c * op.scale)


# Koszul operators are drawn in the ring Z[A] of one map A: zero on Z, the
# swap gamma of Z[C2], the idempotent Op((0, 0)), the rotation of Z[C3] and
# Op((1, 1), 1) = [[1, 1], [0, 1]], whose ring holds the nilpotent A - 1.
# Each lists pairs (u, v) with u v = 0 over one involution besides the
# scalar ones on the identity: 1 +- gamma where A is gamma.  All of them
# commute with the whole ring.
SCALAR_PAIRS = [(1, 0), (0, 1), (0, 0)]
RING_BASES = [
    (identity_map(1, 0), []),
    (MapOperator(SWAP), [(NORM, ONE_MINUS), (ONE_MINUS, NORM)]),
    (MapOperator((0, 0)), []),
    (MapOperator((1, 2, 0)), []),
    (MapOperator((1, 1), 1), []),
]


@st.composite
def kt_modules(draw):
    """(operators, plus, minus) as maps: rank 1 to 3, 0-3 Koszul operators,
    entries in -3..3, all commuting, and plus * minus = 0."""
    base, pairs = draw(st.sampled_from(RING_BASES))
    n = len(base.images)
    pairs = pairs + [(identity_map(n, u), identity_map(n, v)) for u, v in SCALAR_PAIRS]
    in_range = lambda op: all(-3 <= x <= 3 for row in dense(op.matrix()).data for x in row)  # noqa: E731
    element = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: ring_element(base, *ab)).filter(in_range)
    ops = draw(st.lists(element, min_size=0, max_size=3))
    u, v = draw(st.sampled_from(pairs))
    scales = st.sampled_from([-3, -2, -1, 1, 2, 3])
    plus, minus = scaled(u, draw(scales)), scaled(v, draw(scales))
    if draw(st.booleans()):
        plus, minus = minus, plus
    return ops, plus, minus


class TestMakeComplex:
    def test_two_term(self):
        c = make_complex([1, 1], [[[2]]])
        assert c.rank(0) == 1 and c.rank(1) == 1
        assert c.differential(1) == SparseMatrix(1, [{0: 2}])

    def test_not_a_complex(self):
        with pytest.raises(NotAComplex):
            make_complex([1, 1, 1], [[[2]], [[3]]])

    def test_empty(self):
        c = make_complex([], [])
        assert list(c.degrees()) == []
        assert c.homology().entries == {}

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_complex([1, 2], [[[1]]])

    def test_one_shape_mismatch_class(self):
        assert ShapeMismatch is znf.ShapeMismatch


class TestTwist:
    def test_twist_zero_is_identity(self):
        c = make_complex([1, 1], [[[2]]])
        assert shift_eq(twist(c, 0), c)

    def test_twist_by_one_negates(self):
        c = make_complex([1, 1], [[[2]]])
        t = twist(c, 1)
        assert t.rank(1) == 1 and t.rank(2) == 1
        assert t.differential(2) == SparseMatrix(1, [{0: -2}])

    def test_twist_composes(self):
        c = make_complex([2, 1], [[[1], [0]]])
        assert shift_eq(twist(twist(c, 1), 1), twist(c, 2))


class TestMappingCone:
    def test_cone_of_identity_is_acyclic(self):
        c = make_complex([1], [])
        f = ChainMap(c, c, {0: IntMatrix.identity(1)})
        table = mapping_cone(f).complex.homology()
        assert all(v.is_trivial for v in table.entries.values())

    def test_cone_of_zero_map(self):
        c = make_complex([1], [])
        f = ChainMap(c, c, {0: IntMatrix.zeros(1, 1)})
        table = mapping_cone(f).complex.homology()
        assert table.entries[0] == Z and table.entries[1] == Z

    def test_cone_of_multiplication_by_two(self):
        c = make_complex([1], [])
        f = ChainMap(c, c, {0: IntMatrix([[2]])})
        table = mapping_cone(f).complex.homology()
        assert table.entries[0] == Z2 and table.entries[1] == ZERO

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_euler_characteristic_additive(self, a, b, c):
        # cone over a map of two-term complexes: chi(Cone) = chi(X[1]) + chi(Y)
        x = make_complex([1, 1], [[[a]]])
        y = make_complex([1, 1], [[[a]]])
        f = ChainMap(x, y, {0: IntMatrix([[b * a == a * b and b]]), 1: IntMatrix([[b]])})
        cone = mapping_cone(f).complex
        assert euler_characteristic(cone) == euler_characteristic(twist(x, 1)) + euler_characteristic(y)
        table = cone.homology()
        chi_h = 0
        for n, inv in table.entries.items():
            chi_h += (-1) ** n * inv.free_rank
        assert chi_h == euler_characteristic(cone)


class TestActionModule:
    def test_noncommuting_rejected(self):
        # the fiber sum of (1, 1), completed by 1, is [[1, 1], [0, 1]]; the
        # swap conjugates it to its transpose
        a = MapOperator((1, 1), nu=1)
        b = MapOperator(SWAP)
        assert a.matrix() * b.matrix() != b.matrix() * a.matrix()
        with pytest.raises(NonCommutingOperators):
            ActionModule(2, {"a": a, "b": b})

    @staticmethod
    def pair_on_the_whole(module, m):
        """``signh.tate_pair`` of the module's gamma0 on Z^n itself, where
        gamma0's order is certified on its map; ``ActionModule`` certifies
        commutation only."""
        one = SparseMatrix.identity(module.rank)
        whole = FreeQuotient(SparseMatrix.zeros(module.rank, 0), one, one)
        return tate_pair(whole, module.maps["gamma0"], m)

    def test_gamma_order(self):
        swap = MapOperator((1, 0))
        m = ActionModule(2, {"gamma0": swap})
        assert gamma_order_by_powers(m.operator("gamma0"), 64) == 2
        self.pair_on_the_whole(m, 2)
        with pytest.raises(OrderViolation, match="length 2, which does not divide 1"):
            self.pair_on_the_whole(m, 1)

    def test_gamma_of_infinite_order_rejected(self):
        # a map that is not injective and a unipotent 1 + Op(y): neither is
        # a permutation, and the power oracle agrees that neither matrix has
        # finite order; the module takes both, and the order certificate
        # refuses both
        for gamma in (MapOperator((0, 0)), MapOperator((1, 1), shift=1)):
            m = ActionModule(2, {"gamma0": gamma})
            with pytest.raises(OrderViolation, match="not a permutation"):
                self.pair_on_the_whole(m, 2)
            assert gamma_order_by_powers(gamma.matrix(), 64) is None

    def test_gamma_given_as_a_matrix_is_refused(self):
        with pytest.raises(TypeError, match="MapOperator"):
            ActionModule(2, {"gamma0": IntMatrix([[0, 1], [1, 0]])})

    def test_gamma_order_is_read_at_the_sign_order(self):
        # a cyclic shift of order 100 builds a module with no bound, also
        # through with_operator; its order is read where its Tate groups
        # are, passing at m = 100 and 200 and refused at 99 and 50
        n = 100
        shift = MapOperator(tuple((j - 1) % n for j in range(n)))
        m = with_operator(ActionModule(n, {"gamma0": shift}), "X", identity_map(n))
        # Z[Z/100] is induced from the trivial group, so both groups vanish
        assert self.pair_on_the_whole(m, 100) == (AbGroupInvariants(0),) * 2
        self.pair_on_the_whole(m, 200)
        for order in (99, 50):
            with pytest.raises(OrderViolation, match=f"length 100, which does not divide {order}"):
                self.pair_on_the_whole(m, order)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
    def test_gamma_order_is_the_power_orders(self, pi):
        # the cycle walk accepts the order of the matrix and refuses every
        # m short of it
        gamma = MapOperator(tuple(pi))
        m = ActionModule(len(pi), {"gamma0": gamma})
        order = gamma_order_by_powers(gamma.matrix(), 64)
        self.pair_on_the_whole(m, order)
        for short in range(1, order):
            with pytest.raises(OrderViolation):
                self.pair_on_the_whole(m, short)


def class_map(images):
    """The SparseMatrix sending e_j to e_{images[j]}."""
    return SparseMatrix(len(images), [{i: 1} for i in images])


@st.composite
def map_pairs(draw):
    """Two MapOperator values on Z^n, n <= 12: the second map is random,
    the first map itself, or its square, so that commuting pairs come up."""
    n = draw(st.integers(1, 12))
    y = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    z = draw(st.sampled_from(["random", "same", "square"]))
    if z == "random":
        z = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    else:
        z = y if z == "same" else [y[k] for k in y]

    def operator(images):
        return MapOperator(tuple(images), draw(st.integers(-2, 2)), draw(st.integers(-1, 1)),
                           draw(st.sampled_from([1, -1])))

    return operator(y), operator(z)


class TestPermutationPairs:
    """Two ``MapOperator`` values are certified on their maps, without a
    product; an operator given as a matrix is refused."""

    @staticmethod
    def count_products(monkeypatch):
        calls = []
        mul = SparseMatrix.__mul__

        def counted(a, b):
            calls.append((a.rows, b.cols))
            return mul(a, b)

        monkeypatch.setattr(SparseMatrix, "__mul__", counted)
        return calls

    def test_commuting_permutations_need_no_product(self, monkeypatch):
        # on the residues mod 4: the units 3 and 1 as permutations, and the
        # fiber sum of b -> 2b, completed by nu = 1 off its image {0, 2}
        calls = self.count_products(monkeypatch)
        ActionModule(4, {"a": MapOperator((0, 3, 2, 1)), "b": MapOperator((0, 1, 2, 3)),
                         "X": MapOperator((0, 2, 0, 2), nu=1)})
        assert calls == []

    def test_noncommuting_permutations_rejected(self):
        # two transpositions sharing a point
        with pytest.raises(NonCommutingOperators, match="'a' and 'b'"):
            ActionModule(3, {"a": MapOperator((1, 0, 2)), "b": MapOperator((0, 2, 1))})

    def test_permutation_off_a_fiber_sum_rejected(self, monkeypatch):
        # the fiber sum of b -> 2b mod 4 commutes with the unit 3, not with
        # the transposition (0 1)
        calls = self.count_products(monkeypatch)
        fiber = MapOperator((0, 2, 0, 2), nu=1)
        ActionModule(4, {"X": fiber, "p": MapOperator((0, 3, 2, 1))})
        with pytest.raises(NonCommutingOperators, match="'X' and 'p'"):
            ActionModule(4, {"X": fiber, "p": MapOperator((1, 0, 2, 3))})
        assert calls == []

    def test_the_image_rule_refuses_what_composition_passes(self):
        # one map (0, 0) with and without nu: the compositions agree, but
        # where nu = 1 completes the empty fiber of 1 the other does not
        # preserve im y = {0}, and indeed the matrices do not commute
        x, z = MapOperator((0, 0), nu=1), MapOperator((0, 0))
        assert x.matrix() * z.matrix() != z.matrix() * x.matrix()
        with pytest.raises(NonCommutingOperators, match="'x' and 'z'"):
            ActionModule(2, {"x": x, "z": z})
        ActionModule(2, {"x": x, "one": MapOperator((0, 1), nu=3)})

    @settings(max_examples=300, deadline=None)
    @given(map_pairs())
    def test_map_rule_passes_only_commuting_pairs(self, pair):
        # whenever the rule says "commute", the dense product agrees
        a, b = pair
        try:
            ActionModule(len(a.images), {"a": a, "b": b})
        except NonCommutingOperators:
            return
        x, w = dense(a.matrix()), dense(b.matrix())
        assert x * w == w * x

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.integers(-2, 2), st.integers(-2, 2),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=2, max_size=2))))
    def test_two_operators_on_one_map(self, case):
        # shift + scale Op(y, nu) next to shift' + scale' Op(y, mu): accepted
        # whenever nu = mu, and commuting as dense matrices whenever accepted
        y, nu, mu, shifts, scales = case
        a = MapOperator(tuple(y), nu, shifts[0], scales[0])
        b = MapOperator(tuple(y), mu, shifts[1], scales[1])
        try:
            ActionModule(len(y), {"a": a, "b": b})
        except NonCommutingOperators:
            assert nu != mu
            return
        x, w = dense(a.matrix()), dense(b.matrix())
        assert x * w == w * x

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2]))))
    def test_matrix_is_the_defining_sum(self, case):
        # column i is shift e_i + scale (sum_{y(k) = i} e_k + nu [i not in im y] e_i)
        y, nu, shift, scale = case
        n = len(y)
        data = [[shift * (i == j) for j in range(n)] for i in range(n)]
        for k, i in enumerate(y):
            data[k][i] += scale
        for i in set(range(n)) - set(y):
            data[i][i] += scale * nu
        assert dense(MapOperator(tuple(y), nu, shift, scale).matrix()) == IntMatrix(data)

    def test_a_non_injective_class_matrix_is_refused(self, monkeypatch):
        # c = e_0 for both basis vectors, next to the map [[1, 1], [0, 1]]:
        # a matrix is not certified at all, so no product is made either
        calls = self.count_products(monkeypatch)
        with pytest.raises(TypeError, match="'c' is not a MapOperator"):
            ActionModule(2, {"c": class_map([0, 0]), "X": MapOperator((1, 1), nu=1)})
        assert calls == []

    def test_a_signed_permutation_matrix_is_refused(self, monkeypatch):
        # the rotation e_0 -> -e_1, e_1 -> e_0 is no fiber sum of a map
        calls = self.count_products(monkeypatch)
        r = SparseMatrix(2, [{1: -1}, {0: 1}])
        with pytest.raises(TypeError, match="'r' is not a MapOperator"):
            ActionModule(2, {"r": r, "s": MapOperator(SWAP)})
        assert calls == []

    @pytest.mark.parametrize("matrix", [IntMatrix([[2, 0], [0, 2]]), SparseMatrix.identity(2)],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
    def test_a_matrix_operator_is_refused(self, matrix, first):
        # whichever order the names sort in, and even where the matrix would
        # commute with everything
        ops = {"a": matrix, "b": MapOperator(SWAP)} if first else \
            {"a": MapOperator(SWAP), "b": matrix}
        with pytest.raises(TypeError, match="is not a MapOperator"):
            ActionModule(2, ops)


class TestMapColumns:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2]),
        st.sets(st.integers(0, n - 1)))))
    def test_columns_are_the_matrix_columns(self, drawn):
        images, nu, shift, scale, at = drawn
        op = MapOperator(tuple(images), nu, shift, scale)
        positions = tuple(range(len(images)))
        at = sorted(at)
        entries = op.matrix(positions).entries
        assert op.columns(tuple(at), positions) == [entries[i] for i in at]

    def test_the_module_reads_columns_at_a_slice(self):
        op = MapOperator(tuple(3 * b % 9 for b in range(9)), shift=1, scale=-1)
        m = ActionModule(9, {"T": op})
        assert m.columns("T", slice(None, None, 3)) == list(m.operator("T").entries[::3])

    def test_the_maps_share_the_module_position_ints(self):
        # equal values, but the module's int objects, one per position, and
        # one tuple for two operators on one map
        neg = tuple(-a % 700 for a in range(700))
        plus, minus = MapOperator(neg, shift=1), MapOperator(neg, shift=1, scale=-1)
        m = ActionModule(700, {"plus": plus, "minus": minus})
        positions = m._positions
        assert plus.images == neg and plus.images is minus.images
        assert all(i is positions[i] for i in plus.images)
        assert all(i is positions[i] for col in m.operator("plus").entries for i in col)

    @pytest.mark.parametrize("images", [(0, 2), (-1, 0), (0,)])
    def test_a_map_off_the_positions_is_refused(self, images):
        with pytest.raises(ShapeMismatch, match="not a map of range"):
            ActionModule(2, {"a": MapOperator(images)})


class TestBuildKt:
    def test_limit_shape(self):
        # one ideal acting by zero, plus = 2, minus = 0: column ranks 1 per row
        m = trivial_module({"X": 0, "plus": 2, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-4, 4))
        assert kt.window == (-4, 4) and len(kt.horizontal) == len(kt.even) == len(kt.odd) == 2
        assert all(kt.rank(row) == 1 for row in (0, 1))
        assert kt.horizontal[1].is_zero()

    def test_no_ideals_degenerates_to_tate_column(self):
        m = trivial_module({"plus": 2, "minus": 0})
        kt = build_kt(m, [], "plus", "minus", window=(-3, 3))
        t = companion(kt, "T")
        tot = companion(kt, "KTtot")
        assert t.ranks == tot.ranks
        assert all(t.differential(n) == tot.differential(n) for n in t.degrees())

    def test_sign_blocks_are_built_once_per_count_and_sign(self, monkeypatch):
        # rows 0..4 of four operators have counts 1, 4, 6, 4, 1 and signs
        # +, -, +, -, +: three distinct blocks out of each of plus and minus
        calls = []
        real = chainkit.repeat_diagonal
        monkeypatch.setattr(chainkit, "repeat_diagonal",
                            lambda *args: calls.append(args[1:]) or real(*args))
        names = ["X0", "X1", "X2", "X3"]
        m = trivial_module(dict.fromkeys(names, 0) | {"plus": 2, "minus": 0})
        kt = build_kt(m, names, "plus", "minus", window=(-7, 7))
        assert sorted(calls) == sorted([(1, 1), (4, -1), (6, 1)] * 2)
        assert kt.even[0] is kt.even[4] and kt.odd[1] is kt.odd[3]
        assert [kt.rank(row) for row in range(5)] == [1, 4, 6, 4, 1]

    def test_plus_minus_not_zero(self):
        m = trivial_module({"X": 0, "plus": 3, "minus": 2})
        with pytest.raises(PlusMinusNotZero):
            build_kt(m, ["X"], "plus", "minus", window=(-4, 4))

    def test_plus_minus_on_an_involution_needs_no_product(self, monkeypatch):
        # 1 + neg and 1 - neg on Z^5, neg: a -> -a, multiply to 1 - neg^2 = 0;
        # on b -> 2b, whose square b -> 4b is not the identity, they do not
        neg = tuple(-a % 5 for a in range(5))
        calls = TestPermutationPairs.count_products(monkeypatch)
        m = ActionModule(5, {"plus": MapOperator(neg, shift=1),
                             "minus": MapOperator(neg, shift=1, scale=-1)})
        build_kt(m, [], "plus", "minus", window=(-3, 3))
        assert calls == []
        monkeypatch.undo()
        assert (m.operator("plus") * m.operator("minus")).is_zero()
        double = tuple(2 * b % 5 for b in range(5))
        m = ActionModule(5, {"plus": MapOperator(double, shift=1),
                             "minus": MapOperator(double, shift=1, scale=-1)})
        assert not (m.operator("plus") * m.operator("minus")).is_zero()
        with pytest.raises(PlusMinusNotZero):
            build_kt(m, [], "plus", "minus", window=(-3, 3))

    def test_a_scalar_times_zero_is_zero(self):
        # on the identity map Op(id) = 1, so 3 * 0 = 0 whatever the
        # coefficients (2 + Op(id)) and (-1 + Op(id)) read as a pair
        m = trivial_module({"plus": 3, "minus": 0})
        check_plus_minus(m, "plus", "minus")
        check_plus_minus(m, "minus", "plus")
        build_kt(m, [], "plus", "minus", window=(-3, 3))

    def test_window_too_small(self):
        m = trivial_module({"X": 0, "plus": 2, "minus": 0})
        with pytest.raises(WindowTooSmall):
            build_kt(m, ["X"], "plus", "minus", window=(-2, 2))

    def test_signs_anticommute_nontrivial_module(self):
        # 2x2 module with a genuine operator; the block-by-block validator
        # checks the signs
        m = ActionModule(2, {"X": identity_map(2, 0), "N": NORM, "D": ONE_MINUS})
        kt = build_kt(m, ["X"], "N", "D", window=(-4, 4))
        assert kt.rank(1) == 2
        validate_double_complex(kt)


@st.composite
def involution_pairs(draw):
    """Two maps a + b Op(neg) on one involution neg of Z^n, 1 <= n <= 6: neg
    swaps a random set of disjoint pairs, none for the identity; shifts and
    scales in [-3, 3], scale nonzero, and nu, which a permutation ignores."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    neg = list(range(n))
    for k in range(draw(st.integers(0, n // 2))):
        i, j = order[2 * k], order[2 * k + 1]
        neg[i], neg[j] = j, i
    coefficient = st.integers(-3, 3)
    scale = coefficient.filter(bool)

    def operator():
        return MapOperator(tuple(neg), draw(coefficient), draw(coefficient), draw(scale))

    return operator(), operator()


class TestPlusMinus:
    """``check_plus_minus`` is exact on two maps over one involution."""

    @settings(max_examples=300, deadline=None)
    @given(involution_pairs())
    def test_agrees_with_the_dense_product(self, pair):
        plus, minus = pair
        m = ActionModule(len(plus.images), {"plus": plus, "minus": minus})
        try:
            check_plus_minus(m, "plus", "minus")
        except PlusMinusNotZero:
            zero = False
        else:
            zero = True
        assert zero == (dense(plus.matrix()) * dense(minus.matrix())).is_zero()

    def test_the_identity_is_read_as_a_scalar(self):
        # (2 + Op(id)) (-1 + Op(id)) = 3 * 0: both coefficients of the
        # two-term rule are nonzero, yet the product is zero
        m = ActionModule(2, {"plus": identity_map(2, 3), "minus": identity_map(2, 0)})
        check_plus_minus(m, "plus", "minus")
        m = ActionModule(2, {"plus": identity_map(2, 3), "minus": identity_map(2, 1)})
        with pytest.raises(PlusMinusNotZero):
            check_plus_minus(m, "plus", "minus")


class TestCompanions:
    def test_k_of_no_ideals(self):
        m = trivial_module({"plus": 2, "minus": 0})
        kt = build_kt(m, [], "plus", "minus", window=(-3, 3))
        k = companion(kt, "K")
        assert k.ranks == {0: 1}
        assert k.homology().entries[0] == Z

    def test_kttot_r1_m2_interior(self):
        # rank-one module, one zero operator, [2; 0]: Z/2 in every interior degree
        m = trivial_module({"X": 0, "plus": 2, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-6, 6))
        table = companion(kt, "KTtot").homology()
        degs = table.stable_degrees()
        assert degs
        assert all(table.entries[n] == Z2 for n in degs)

    def test_kttot_r3_m2_interior(self):
        m = trivial_module({f"X{i}": 0 for i in range(3)} | {"plus": 2, "minus": 0})
        kt = build_kt(m, ["X0", "X1", "X2"], "plus", "minus", window=(-7, 7))
        table = companion(kt, "KTtot").homology()
        expected = AbGroupInvariants(0, (2, 2, 2, 2))
        assert all(table.entries[n] == expected for n in table.stable_degrees())

    def test_ktplus_agrees_with_kttot_high_degrees(self):
        # group-ring flavoured module: regular representation of Z/2 with a
        # unit Koszul operator, as in the resolution/completion comparison
        m = ActionModule(2, {"X": identity_map(2, 0), "N": NORM, "D": ONE_MINUS,
                             "gamma0": MapOperator(SWAP)})
        kt = build_kt(m, ["X"], "N", "D", window=(-4, 4))
        tot = companion(kt, "KTtot")
        plus = companion(kt, "KTplus")
        r = 1
        for n in range(r, 5):
            assert plus.rank(n) == tot.rank(n)
        for n in range(r + 1, 5):
            assert plus.differential(n) == tot.differential(n)

    def test_k_acyclic_for_invertible_operator(self):
        # Prop-style consequence: an invertible Koszul operator kills K
        op = MapOperator((1, 1), nu=1)  # [[1, 1], [0, 1]], unimodular
        zero = identity_map(2, 0)
        m = ActionModule(2, {"X": op, "plus": zero, "minus": zero})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-3, 3))
        table = companion(kt, "K").homology()
        assert all(v.is_trivial for v in table.entries.values())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.permutations(range(n))),
           st.sampled_from([1, -1]))
    def test_k_acyclic_for_random_unimodular(self, pi, sign):
        # a signed permutation matrix, +-Op(pi), is unimodular
        n = len(pi)
        op = MapOperator(tuple(pi), scale=sign)
        zero = identity_map(n, 0)
        m = ActionModule(n, {"X": op, "plus": zero, "minus": zero})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-3, 3))
        table = companion(kt, "K").homology()
        assert all(v.is_trivial for v in table.entries.values())

    def test_window_stabilization(self):
        m = trivial_module({"X0": 0, "X1": 0, "plus": 4, "minus": 0})
        kt_small = build_kt(m, ["X0", "X1"], "plus", "minus", window=(-5, 5))
        kt_big = build_kt(m, ["X0", "X1"], "plus", "minus", window=(-9, 9))
        t_small = companion(kt_small, "KTtot").homology()
        t_big = companion(kt_big, "KTtot").homology()
        assert t_small.agrees_with(t_big)
        for n in t_small.stable_degrees():
            assert t_small.entries[n] == t_big.entries[n]

    def test_tbar_quotient_route(self):
        # module Z with one operator multiplication by 3: Tbar is the Tate
        # column of Z/3 with [2; 0], whose homology alternates Z/... exactly:
        # even spots ker(0)/im(2) on Z/3 -> Z/3 / 2Z/3 = 0 wait 2 invertible
        # mod 3 so everything dies; compute and pin the answer by hand:
        # T(Z/3, [2;0]): d even = 2 (iso on Z/3), d odd = 0.
        # H at even n: ker(2)/im(0) = 0; at odd n: ker(0)/im(2) = (Z/3)/(Z/3) = 0.
        m = trivial_module({"X": 3, "plus": 2, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-4, 4))
        tbar = companion(kt, "Tbar")
        assert isinstance(tbar, PresentedComplex)
        table = tbar.homology()
        assert all(table.entries[n].is_trivial for n in table.stable_degrees())

    def test_tbar_with_torsion_generic_path(self):
        # plus = 0 and minus = 0 over Z/3: homology is Z/3 everywhere
        m = trivial_module({"X": 3, "plus": 0, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-4, 4))
        table = companion(kt, "Tbar").homology()
        z3 = AbGroupInvariants(0, (3,))
        assert all(table.entries[n] == z3 for n in table.stable_degrees())

    def test_kbar_presented(self):
        m = trivial_module({"X": 0, "plus": 2, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-4, 4))
        kbar = companion(kt, "Kbar")
        # minus = 0 so Kbar is just K again: Z in degrees 0 and 1, zero map
        table = kbar.homology()
        assert table.entries[0] == Z and table.entries[1] == Z


class TestQuotientConsequences:
    def test_total_to_tbar_iso_when_k_positively_acyclic(self):
        # one injective operator: the Koszul row is acyclic in positive
        # degree, so the total complex and the operator-quotient column have
        # the same homology (multiplication by 2 with a trivial Tate pair)
        m = trivial_module({"X": 2, "plus": 0, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-6, 6))
        tot = companion(kt, "KTtot").homology()
        tbar = companion(kt, "Tbar").homology()
        assert tot.agrees_with(tbar)
        assert tot.constant_value() == Z2

    def test_total_acyclic_and_ktplus_matches_kbar_when_t_acyclic(self):
        # induced sign module: the Tate column is exact, so the total complex
        # dies and the truncated total computes the minus-quotient row
        m = ActionModule(2, {"X": identity_map(2, 0), "N": NORM, "D": ONE_MINUS})
        kt = build_kt(m, ["X"], "N", "D", window=(-4, 6))
        tot = companion(kt, "KTtot").homology()
        assert all(tot.entries[n].is_trivial for n in tot.stable_degrees())
        plus = companion(kt, "KTplus").homology()
        kbar = companion(kt, "Kbar").homology()
        for n in (0, 1):
            assert plus.entries[n] == kbar.entries[n] == Z


class TestPresentedComplex:
    def test_rejects_nonpreserving_differential(self):
        # d sends the relation 2e to an element not in the target relations
        ranks = {0: 1, 1: 1}
        rels = {0: IntMatrix([[3]]), 1: IntMatrix([[2]])}
        diff = {1: IntMatrix([[1]])}
        with pytest.raises(NotAComplex):
            PresentedComplex(ranks, rels, diff)

    def test_checks_every_distinct_degree_of_a_periodic_window(self):
        # d = 2 on Z / 4 in every degree is a complex; shrinking the relations
        # at one degree alone, with the same differentials all along, breaks
        # relation preservation there and must still be caught
        ranks = {n: 1 for n in range(-4, 5)}
        rels = {n: IntMatrix([[4]]) for n in ranks}
        diff = {n: IntMatrix([[2]]) for n in range(-3, 5)}
        PresentedComplex(ranks, rels, diff)
        rels[1] = IntMatrix([[16]])
        with pytest.raises(NotAComplex, match="preserve relations"):
            PresentedComplex(ranks, rels, diff)

    def test_free_reduction_matches_generic(self):
        # two-periodic complex over Z^2 / (2e1 - 2e2)... relations make torsion,
        # exercising the generic path; compare against a hand computation.
        rel = IntMatrix.from_columns([(2, -2)])
        d_even = IntMatrix([[1, 1], [1, 1]])
        d_odd = IntMatrix([[1, -1], [-1, 1]])
        ranks = {n: 2 for n in range(-4, 5)}
        rels = {n: rel for n in range(-4, 5)}
        diff = {n: (d_even if n % 2 == 0 else d_odd) for n in range(-3, 5)}
        pc = PresentedComplex(ranks, rels, diff, stable=(-3, 3))
        table = pc.homology()
        assert set(table.stable_degrees()) == set(range(-3, 4))


class TestFreeHomology:
    """``ChainComplex.homology`` reads ranks and torsion off the invariant
    factors of the differentials; ``homology_pair`` is the subquotient
    ker d_n / im d_{n+1} computed from representatives."""

    @settings(max_examples=120, deadline=None)
    @given(torsion_complexes())
    def test_matches_per_degree_subquotients(self, c):
        assert c.homology().entries == per_degree_homology(c)

    def test_known_torsion(self):
        # Z --2--> Z --0--> Z: H_0 = Z/2, H_1 = 0, H_2 = Z
        c = make_complex([1, 1, 1], [[[2]], [[0]]])
        assert c.homology().entries == {0: Z2, 1: ZERO, 2: Z}

    def test_kt_total_reduces_each_distinct_differential_once(self, monkeypatch):
        # each reduction enters through rank_torsion
        calls = []
        real = znf.rank_torsion

        def spy(m):
            calls.append(m)
            return real(m)

        # Z[C2] + Z, neg swapping the first two coordinates, with Koszul
        # operators 0 and the norm 1 + neg: the induced summand has no Tate
        # groups, and the norm is 2 on Z, so 0 on its Tate groups Z/2; two
        # zero operators give (Z/2)^2 in every degree
        neg = (1, 0, 2)
        module = ActionModule(3, {"X": identity_map(3, 0), "Y": MapOperator(neg, shift=1),
                                  "plus": MapOperator(neg, shift=1),
                                  "minus": MapOperator(neg, shift=1, scale=-1)})
        kt = build_kt(module, ["X", "Y"], "plus", "minus", window=(-8, 8))
        total = companion(kt, "KTtot")
        monkeypatch.setattr(chainkit, "rank_torsion", spy)
        table = total.homology()
        monkeypatch.undo()
        assert calls
        distinct = set(total.diff.values())
        assert len(calls) == len(set(calls)) == len(distinct) < len(total.diff)
        assert table.entries == per_degree_homology(total)
        assert table[0] == AbGroupInvariants(0, (2, 2))

    def test_sparse_differentials_reduce_each_distinct_value_once(self, monkeypatch):
        # the Tate column of Z[C2] (gamma swaps the two coordinates): every
        # degree gets its own SparseMatrix object, equal to one of two values
        def sign_map(sign):
            return SparseMatrix(2, [{0: 1, 1: sign}, {0: sign, 1: 1}])

        ranks = {n: 2 for n in range(-6, 7)}
        diff = {n: sign_map(1 if n % 2 == 0 else -1) for n in range(-5, 7)}
        c = ChainComplex(ranks, diff, stable=(-5, 5))
        calls = []
        real = znf._invariants

        def spy(rows, height, width):
            calls.append((height, width))
            return real(rows, height, width)

        monkeypatch.setattr(znf, "_invariants", spy)
        table = c.homology()
        monkeypatch.undo()
        assert len(calls) == 2 < len(c.diff)
        assert table.entries == per_degree_homology(c)
        # Z[C2] is induced, so its Tate cohomology vanishes
        assert all(table[n].is_trivial for n in table.stable_degrees())


def test_total_complex_matches_column_when_no_ideals():
    # pure Tate column of Z with [2; 0]: the norm map 2 leaves even degrees,
    # so ker(norm)/im(1-gamma) sits at even spots (trivial here) and
    # ker(1-gamma)/im(norm) = Z/2 at odd spots
    m = trivial_module({"plus": 2, "minus": 0})
    kt = build_kt(m, [], "plus", "minus", window=(-3, 3))
    tot = total_complex(kt)
    assert tot.rank(0) == 1
    table = tot.homology()
    assert table.entries[0] == ZERO
    assert table.entries[1] == Z2
    assert table.entries[-1] == Z2


class TestSparseTotal:
    """``build_kt`` and ``total_complex`` build sparse differentials, one
    object per distinct value; a dense entry-by-entry construction of the
    same complex is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(kt_modules(), st.sampled_from([0, 2]), st.sampled_from(["KTtot", "KTplus"]))
    def test_matches_the_dense_paste(self, module, widen, which):
        ops, plus, minus = module
        r = len(ops)
        window = (-(r + 2) - widen // 2, r + 1 + widen // 2)  # the minimum width, + widen
        names = {f"X{i}": op for i, op in enumerate(ops)}
        m = ActionModule(len(plus.images), names | {"plus": plus, "minus": minus})
        kt = build_kt(m, list(names), "plus", "minus", window=window)
        validate_double_complex(kt)
        total = companion(kt, which)
        keep = (lambda m, n: n >= 0) if which == "KTplus" else (lambda m, n: True)
        mats = [dense(op.matrix()) for op in (*ops, plus, minus)]
        blocks = dense_kt_blocks(mats[:r], mats[r], mats[r + 1], window)
        ranks, diff = dense_paste_total(*blocks, r, window, keep)
        assert total.ranks == {t: k for t, k in ranks.items() if k}
        assert all(isinstance(d, SparseMatrix) for d in total.diff.values())
        for t in range(total.lo, total.hi + 2):
            assert dense(total.differential(t)) == diff.get(t, IntMatrix.zeros(
                total.rank(t - 1), total.rank(t)))
        # equal differentials are one object
        assert len({id(d) for d in total.diff.values()}) == len(set(total.diff.values()))
        assert total.homology().entries == per_degree_homology(total)

    def test_absent_blocks_read_as_sparse_zeros(self):
        # row 0 maps to nothing: its horizontal block has no rows
        m = trivial_module({"X": 0, "plus": 2, "minus": 0})
        kt = build_kt(m, ["X"], "plus", "minus", window=(-4, 4))
        assert kt.horizontal[0] == SparseMatrix.zeros(0, 1)
        total = companion(kt, "KTtot")
        assert total.differential(total.lo) == SparseMatrix.zeros(0, total.rank(total.lo))

    @pytest.mark.parametrize("scalars, plus, minus, window", [
        ([0, 0], 2, 0, None), ([2, -2], 2, 0, (-6, 7)), ([], 3, 0, (-3, 3)), ([1], 0, 5, None)])
    def test_scalar_kt_is_the_total_of_the_rank_one_module(self, scalars, plus, minus, window):
        # against the dense paste of the 1 x 1 scalar blocks, cell by cell
        r = len(scalars)
        got = scalar_kt_complex(scalars, plus, minus, window)
        assert scalar_kt(scalars, plus, minus, window) == got.homology()
        window = window or (-(r + 3), r + 3)
        ops = [IntMatrix([[c]]) for c in scalars]
        ranks, diff = dense_paste_total(
            *dense_kt_blocks(ops, IntMatrix([[plus]]), IntMatrix([[minus]]), window), r, window,
            lambda m, n: True)
        assert got.ranks == {t: k for t, k in ranks.items() if k}
        assert got.stable == (window[0] + r + 2, window[1] - 2)
        for t in range(got.lo, got.hi + 2):
            assert dense(got.differential(t)) == diff.get(t, IntMatrix.zeros(
                got.rank(t - 1), got.rank(t)))

    def test_each_distinct_total_differential_is_built_once(self, monkeypatch):
        # past the edges of the window only the parity of t tells the
        # differentials apart, so a wider window builds no more of them
        m = trivial_module({"X": 3, "Y": -1, "plus": 2, "minus": 0})
        built = {}
        for window in ((-6, 6), (-16, 16)):
            kt = build_kt(m, ["X", "Y"], "plus", "minus", window=window)
            calls = []
            real = chainkit._sparse
            monkeypatch.setattr(chainkit, "_sparse",
                                lambda *args: calls.append(args[0]) or real(*args))
            total = total_complex(kt)
            monkeypatch.undo()
            built[window] = len(calls)
            assert len(calls) < len(total.diff)
            assert total.homology().entries == per_degree_homology(total)
        assert built[(-6, 6)] == built[(-16, 16)]

    def test_two_windows_with_the_same_scalars_give_two_tables(self):
        narrow = scalar_kt([0, 0], 2, 0, (-5, 5))
        wide = scalar_kt([0, 0], 2, 0, (-7, 7))
        assert narrow is not wide
        assert narrow != wide
        assert set(wide.entries) - set(narrow.entries)
        # the default window is (-5, 5) at r = 2, so that call is the memo's
        assert scalar_kt((0, 0), 2, 0) is narrow
        assert scalar_kt([0, 0], 2, 0, (-7, 7)) is wide

    def test_the_memo_keeps_plus_and_minus_apart(self):
        # the bare Tate column: [3; 0] and [0; 3] put Z/3 at opposite parities
        assert scalar_kt([], 3, 0)[0] == ZERO
        assert scalar_kt([], 0, 3)[0] == AbGroupInvariants(0, (3,))

    def test_the_memo_keeps_tables_not_complexes(self):
        # a complex and its differentials are dropped once reduced
        scalar_kt([0, 0, 0], 2, 0)
        scalar_kt([1, -1], 0, 5, (-6, 6))
        assert len(chainkit._SCALAR_KT) == 2
        assert all(type(t) is HomologyTable for t in chainkit._SCALAR_KT.values())

    def test_a_double_complex_that_is_not_one_is_refused(self):
        # rows and columns commute instead of anticommuting: stored as it
        # is, the total differential must still fail d*d = 0
        one = SparseMatrix.identity(1)
        d = DoubleComplex((-3, 3), (SparseMatrix.zeros(0, 1), one), (one, one), (one, one))
        with pytest.raises(NotAComplex):
            validate_double_complex(d)
        with pytest.raises(NotAComplex):
            total_complex(d)
