from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    IntMatrix,
    NoIntegerSolution,
    as_sparse,
    block_diagonal,
    checked_induce,
    dense,
    homology_pair,
    image_basis,
    kernel_basis,
    lattice_contains,
    preimage_lattice,
    snf,
    snf_invariants,
    solve,
    subquotient,
    uprime_lattice,
)
from uod import znf
from uod.arith import ArchimedeanBackend, gf_group
from uod.distmod import build_af, distribution_relations
from uod.znf import (
    AbGroupInvariants,
    FreeQuotient,
    InducedOperatorUndefined,
    NotAComplement,
    ShapeMismatch,
    SparseMatrix,
    cokernel_invariants,
    complement_projection,
    rank_torsion,
)


Q = ArchimedeanBackend()


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def det_laplace(m):
    # brute-force determinant, used as an independent oracle only
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j]:
            minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
            total += (-1) ** j * m[0, j] * det_laplace(minor)
    return total


small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7])


def sparse_matrix(rows, cols, entries=sparse_entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda data: IntMatrix(data, cols=cols))


# (r x k, k x c) pairs with every dimension allowed to be 0
mul_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(sparse_matrix(d[0], d[1]), sparse_matrix(d[1], d[2]))
)


# mostly units, so unit pivots come first and the rest follow them
unit_heavy_matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: sparse_matrix(*d, st.sampled_from([0, 1, -1, 1, -1, 2, -2, 3]))
)


# entry pools for the sparse Smith front end: units only, no unit at all,
# units mixed with entries far beyond machine words, and a general mix
invariant_pools = st.sampled_from([
    (0, 0, 1, -1),
    (0, 0, 0, 2, -2, 3, 4, 6, -9),
    (0, 0, 1, -1, 2, -6, 10**12 + 1, -(2**70)),
    (0, 0, 0, 0, 1, -1, 2, -3, 7),
])


@st.composite
def invariant_cases(draw):
    pool = draw(invariant_pools)
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    data = draw(st.lists(st.lists(st.sampled_from(pool), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r > 1 and c and draw(st.booleans()):
        # rank-deficient: the last row is a combination of the others
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1))
        data[-1] = [sum(k * row[j] for k, row in zip(coeffs, data)) for j in range(c)]
    return IntMatrix(data, cols=c)


def dense_invariants(m):
    return znf._run_smith([list(row) for row in m.data])


def split(diag):
    """(rank, torsion) of an invariant-factor diagonal, as ``rank_torsion``
    reports it."""
    return sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


def cokernel_of(m: IntMatrix) -> AbGroupInvariants:
    """Invariants of Z^rows / im(m) with the rows of ``m`` as the rows of the
    unit-pivot core, where ``cokernel_invariants`` takes its columns."""
    rank, torsion = split(snf_invariants(m))
    return AbGroupInvariants(m.rows - rank, torsion)


def sparse_invariants(m):
    """The unit-pivot core on the column dicts of m, read as rows of m^T."""
    return znf._invariants([dict(c) for c in sparse(m).entries], m.cols, m.rows)


@st.composite
def monomial_cases(draw):
    """Signed monomial matrices, possibly rectangular: one nonzero in some
    rows and columns, mixing units, small non-units and huge entries."""
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    k = draw(st.integers(0, min(r, c)))
    rows = draw(st.permutations(range(r)))[:k]
    cols = draw(st.permutations(range(c)))[:k]
    values = st.sampled_from((1, -1, 2, -2, 3, 4, -6, 9, 10, 12, -15, 2**70, -(3**40)))
    data = [[0] * c for _ in range(r)]
    for i, j in zip(rows, cols):
        data[i][j] = draw(values)
    return IntMatrix(data, cols=c)


@st.composite
def costly_cases(draw):
    """Matrices whose rows and columns all hold two or more nonzeros, so
    that no unit pivot costs 0."""
    r, c = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    pool = (0, 0, 1, -1, 2, -3)
    data = [[draw(st.sampled_from(pool)) for _ in range(c)] for _ in range(r)]
    nonzero = st.sampled_from((1, -1, 1, -1, 2))
    for i in range(r):
        for j in (i % c, (i + 1) % c):
            data[i][j] = data[i][j] or draw(nonzero)
    for j in range(c):
        for i in (j % r, (j + 1) % r):
            data[i][j] = data[i][j] or draw(nonzero)
    return IntMatrix(data, cols=c)


@st.composite
def unit_free_cases(draw):
    """Matrices with no ±1 entry, so that no unit pivot is taken, and with
    two nonzeros in row 0, so that the residual is not monomial: the whole
    matrix reaches ``_hermite`` and ``_Smith``.  Entries go far beyond
    machine words, and some cases are rank-deficient."""
    r, c = draw(st.integers(1, 7)), draw(st.integers(2, 7))
    pool = st.sampled_from((0, 0, 0, 2, -2, 3, 4, -6, 9, 10**12 + 3, -(2**70)))
    data = [[draw(pool) for _ in range(c)] for _ in range(r)]
    nonzero = st.sampled_from((2, -3, 5, 6))
    data[0][0], data[0][1] = data[0][0] or draw(nonzero), data[0][1] or draw(nonzero)
    if r > 1 and draw(st.booleans()):
        # the last row twice the first: no unit appears, and the rank drops
        data[-1] = [2 * x for x in data[0]]
    return IntMatrix(data, cols=c)


def column_index(rows):
    """{column: rows with a nonzero there}, recounted from the rows."""
    at = {}
    for i, r in rows.items():
        for j in r:
            at.setdefault(j, set()).add(i)
    return at


def elementary_product(n, steps):
    """The product of the elementary matrices 1 + c E_ij for the given
    (i, j, c) with i != j, and its inverse."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for i, j, c in steps:
        # a <- a (1 + c E_ij): column j += c * column i
        for row in a:
            row[j] += c * row[i]
        # inv <- (1 - c E_ij) inv: row i -= c * row j
        inv[i] = [x - c * y for x, y in zip(inv[i], inv[j])]
    return IntMatrix(a), IntMatrix(inv)


@st.composite
def norm_cases(draw):
    """The norm 1 + g + ... + g^(m-1) or 1 - g of a permutation g of order
    dividing m = 3 or 6, conjugated by a few elementary matrices: rows full
    of ±1 entries, as in the sign norms of the function-field levels with
    q = 4 and q = 7."""
    m = draw(st.sampled_from((3, 6)))
    lengths = draw(st.lists(st.sampled_from([d for d in (1, 2, 3, 6) if m % d == 0]),
                            min_size=1, max_size=5))
    n = sum(lengths)
    points = draw(st.permutations(range(n)))
    image = list(range(n))
    start = 0
    for length in lengths:
        cycle = points[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
        start += length
    g = IntMatrix([[int(image[j] == i) for j in range(n)] for i in range(n)])
    if n > 1:
        index = st.integers(0, n - 1)
        steps = draw(st.lists(st.tuples(index, index, st.sampled_from((1, -1, 2)))
                              .filter(lambda t: t[0] != t[1]), max_size=2 * n))
        a, inv = elementary_product(n, steps)
        g = a * g * inv
    if draw(st.booleans()):
        return IntMatrix.identity(n) - g
    norm, power = IntMatrix.identity(n), IntMatrix.identity(n)
    for _ in range(m - 1):
        power = power * g
        norm = norm + power
    return norm


@st.composite
def relation_blocks(draw):
    """Sparse relation columns, mostly ±1, and further columns that are
    integer combinations of them, shuffled: the shape of the cokernel that
    ``xi0_basis`` reduces."""
    r = draw(st.integers(1, 14))
    index = st.integers(0, r - 1)
    entry = st.sampled_from((1, -1, 1, -1, 1, 2, -2, 3))
    base = []
    for _ in range(draw(st.integers(1, 12))):
        col = [0] * r
        for i in draw(st.lists(index, min_size=1, max_size=4, unique=True)):
            col[i] = draw(entry)
        base.append(col)
    dependent = []
    for _ in range(draw(st.integers(1, 8))):
        picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(-2, 2)),
                              min_size=1, max_size=3))
        dependent.append([sum(k * base[b][i] for b, k in picks) for i in range(r)])
    cols = draw(st.permutations(base + dependent))
    return IntMatrix.from_columns(cols, rows=r)


def pairwise_chain(entries):
    """Invariant factors of diag(entries) by the gcd/lcm sweep over all pairs."""
    d = list(entries)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def naive_product(a, b):
    return [
        [sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


class TestMatrixConstruction:
    @settings(max_examples=200, deadline=None)
    @given(mul_pairs)
    def test_mul_matches_triple_loop(self, pair):
        a, b = pair
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod == IntMatrix(naive_product(a, b), cols=b.cols)

    def test_mul_empty_and_zero_rows(self):
        a = IntMatrix([[0, 0, 0], [1, -1, 2]])
        b = IntMatrix([[0, 5], [0, 0], [3, 0]])
        assert a * b == IntMatrix([[0, 0], [6, 5]])
        assert (IntMatrix.zeros(0, 3) * b) == IntMatrix.zeros(0, 2)
        assert (IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 4)) == IntMatrix.zeros(2, 4)
        assert (b * IntMatrix.zeros(2, 0)) == IntMatrix.zeros(3, 0)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices, small_matrices)
    def test_internal_constructors_match_validated_ones(self, m, other):
        # every derived matrix equals the same data pushed through __init__
        derived = [
            -m, m + m, m.scale(-3), m.transpose(), m.transpose().transpose(),
            m.submatrix(range(m.rows - 1, -1, -1), range(m.cols)),
            block_diagonal([m, other]),
        ]
        if m.rows == other.rows:
            derived.append(m.hstack(other))
        if m.cols == other.cols:
            derived.append(m.vstack(other))
        for d in derived:
            assert d == IntMatrix(d.data, cols=d.cols)
            assert all(type(row) is tuple for row in d.data)
        assert m.transpose().rows == m.cols and m.transpose().cols == m.rows
        assert m.transpose().transpose() == m

    def test_identity_zeros_diagonal(self):
        assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
        assert IntMatrix.identity(0) == IntMatrix.zeros(0, 0)
        assert IntMatrix.zeros(2, 3) == IntMatrix([[0, 0, 0], [0, 0, 0]])
        assert IntMatrix.zeros(2, 0).rows == 2
        assert IntMatrix.diagonal([2, 3], rows=3, cols=2) == IntMatrix([[2, 0], [0, 3], [0, 0]])
        assert IntMatrix.diagonal([2, 3], rows=1, cols=3) == IntMatrix([[2, 0, 0]])

    def test_from_columns(self):
        assert IntMatrix.from_columns([(1, 2), (3, 4)]) == IntMatrix([[1, 3], [2, 4]])
        assert IntMatrix.from_columns([], rows=3) == IntMatrix.zeros(3, 0)
        with pytest.raises(ShapeMismatch):
            IntMatrix.from_columns([(1, 2), (3,)])


# entries for the sparse type: units, zeros, a non-unit and one far beyond
# machine words, on every shape from 0 x 0 to 6 x 6
sparse_type_pairs = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda d: st.tuples(
        *(sparse_matrix(r, c, st.sampled_from([0, 0, 0, 1, -1, 7, 2**70, -(2**70)]))
          for r, c in ((d[0], d[1]), (d[1], d[2]), (d[0], d[1])))
    )
)


class TestSparseMatrix:
    @settings(max_examples=300, deadline=None)
    @given(sparse_type_pairs)
    def test_agrees_with_intmatrix(self, case):
        a, b, other = case
        sa, sb, so = sparse(a), sparse(b), sparse(other)
        assert dense(sa) == a and (sa.rows, sa.cols) == (a.rows, a.cols)
        prod = sa * sb
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert dense(prod) == a * b
        assert prod.is_zero() == (a * b).is_zero()
        assert sa.is_zero() == a.is_zero()
        assert [sa.column(j) for j in range(a.cols)] == a.columns()
        assert (sa == so) == (a == other)
        assert dense(sa + so) == a + other and dense(sa - so) == a - other
        assert (sa - sa).entries == tuple({} for _ in sa.entries)  # no zero is stored
        assert sa == sparse(a) and sa != a
        assert dense(SparseMatrix.identity(a.rows)) == IntMatrix.identity(a.rows)
        assert SparseMatrix.identity(a.rows) * sa == sa == sa * SparseMatrix.identity(a.cols)

    @settings(max_examples=200, deadline=None)
    @given(sparse_type_pairs)
    def test_hash_agrees_with_equality(self, case):
        a, _, other = case
        sa, so = sparse(a), sparse(other)
        # equal values built along other paths: a product, a difference
        same = [sparse(a), sa * SparseMatrix.identity(a.cols), sa + (so - so)]
        assert all(m == sa and hash(m) == hash(sa) for m in same)
        assert hash(sa) == hash(sa)  # cached, and stable
        assert len({sa, so, *same}) == (1 if a == other else 2)

    @settings(max_examples=100, deadline=None)
    @given(sparse_type_pairs, st.randoms(use_true_random=False))
    def test_submatrix_agrees_with_intmatrix(self, case, rng):
        a = case[0]
        rows = rng.sample(range(a.rows), rng.randint(0, a.rows))
        cols = [rng.randrange(a.cols) for _ in range(rng.randint(0, 4))] if a.cols else []
        sub = sparse(a).submatrix(rows, cols)
        assert (sub.rows, sub.cols) == (len(rows), len(cols))
        assert dense(sub) == a.submatrix(rows, cols)

    def test_zeros_are_not_stored(self):
        m = SparseMatrix(3, [{0: 0, 2: 5}, {}, {1: -1}])
        assert m.entries == ({2: 5}, {}, {1: -1})
        assert m == SparseMatrix(3, [{2: 5}, {1: 0}, {1: -1}])
        assert SparseMatrix(2, [{0: 0}]).is_zero()
        assert dense(SparseMatrix(4, [])) == IntMatrix.zeros(4, 0)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, [{2: 1}])
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, [{0: 1}]) * SparseMatrix(2, [{0: 1}])
        with pytest.raises(TypeError):
            SparseMatrix.identity(2) * IntMatrix.identity(2)
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, [{0: 1}]) - SparseMatrix(3, [{0: 1}])
        with pytest.raises(TypeError):
            SparseMatrix.identity(2) + IntMatrix.identity(2)


class TestSnf:
    def test_identity(self):
        assert snf(IntMatrix.identity(2)).invariants == (1, 1)

    def test_two_by_two(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8, so (2, 4)
        m = IntMatrix([[2, 4], [6, 8]])
        res = snf(m)
        assert res.invariants == (2, 4)
        assert res.left * m * res.right == res.diagonal()

    def test_zero_1x1(self):
        assert snf(IntMatrix([[0]])).invariants == (0,)

    def test_empty(self):
        res = snf(IntMatrix.zeros(0, 3))
        assert res.invariants == ()
        assert res.right.rows == 3

    @staticmethod
    def check_snf(m):
        res = snf(m)
        assert res.left * m * res.right == res.diagonal()
        assert det_laplace(res.left) in (1, -1)
        assert det_laplace(res.right) in (1, -1)
        inv = res.invariants
        assert all(d >= 0 for d in inv)
        for a, b in zip(inv, inv[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)
        assert snf_invariants(m) == inv
        return res

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_transforms_and_chain(self, m):
        self.check_snf(m)

    @settings(max_examples=150, deadline=None)
    @given(unit_heavy_matrices)
    def test_transforms_and_chain_unit_heavy(self, m):
        self.check_snf(m)

    def test_non_unit_pivots_after_unit_ones(self):
        # diag(1, 2, 3) and unimodular scramblings that keep a unit entry:
        # the unit pivot is taken first, and 2 and 3 must still merge into 6
        for rows in ([[1, 0, 0], [0, 2, 0], [0, 0, 3]],
                     [[2, 0, 0], [0, 1, 0], [0, 0, 3]],
                     [[1, 1, 0], [1, 3, 0], [0, 0, 3]],
                     [[0, 0, 3], [1, 3, 0], [1, 1, 0]],
                     [[1, 2, 3], [2, 6, 6], [3, 6, 12]]):
            m = IntMatrix(rows)
            assert abs(det_laplace(m)) == 6
            assert self.check_snf(m).invariants == (1, 1, 6)
            assert rank_torsion(sparse(m)) == (3, (6,))

    def test_rank_torsion(self):
        assert rank_torsion(sparse(IntMatrix([[2, 4], [6, 8]]))) == (2, (2, 4))
        assert rank_torsion(sparse(IntMatrix([[1, 2], [2, 4]]))) == (1, ())
        assert rank_torsion(sparse(IntMatrix.zeros(3, 0))) == (0, ())

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_cokernel_permutation_invariant(self, m, rng):
        rows = list(range(m.rows))
        cols = list(range(m.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = m.submatrix(rows, cols)
        assert cokernel_invariants(sparse(m)) == cokernel_invariants(sparse(shuffled))


class TestSparseInvariants:
    @settings(max_examples=400, deadline=None)
    @given(invariant_cases())
    def test_matches_dense_smith(self, m):
        want = dense_invariants(m)
        assert snf_invariants(m) == want
        # sparse columns reach the same core as the rows of the transpose
        assert sparse_invariants(m) == want
        assert rank_torsion(sparse(m)) == split(want)
        assert cokernel_invariants(sparse(m)) == cokernel_of(m)

    @settings(max_examples=200, deadline=None)
    @given(costly_cases())
    def test_no_pivot_costs_zero(self, m):
        # every unit pivot fills in, so rows change length and move between
        # the pivot set's buckets, and gain and lose units, as they go
        assert snf_invariants(m) == dense_invariants(m)
        assert sparse_invariants(m) == dense_invariants(m)

    @settings(max_examples=300, deadline=None)
    @given(unit_free_cases())
    def test_unit_free_matrices_reach_the_dense_stage_whole(self, m):
        # the columns of as_sparse(m) are the rows of the core, so the
        # residual's columns, which _hermite takes, are the nonzero rows of
        # m on its nonzero columns
        reached = []
        real = znf._hermite

        def spy(columns, height):
            reached.append((sorted(map(tuple, columns)), height))
            return real(columns, height)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(znf, "_hermite", spy)
            got = rank_torsion(as_sparse(m))
        nonzero = [j for j in range(m.cols) if any(m.column(j))]
        rows = sorted(tuple(row[j] for j in nonzero) for row in m.data if any(row))
        assert reached == [(rows, len(nonzero))]
        assert got == split(snf(m).invariants)

    def test_stale_candidates_are_rekeyed_or_dropped(self):
        # no unit is alone in its column, so row 0 goes first as the shortest
        # row with a unit; it fills row 1 in from 4 entries to 5, and takes
        # both units of row 2 away, so row 1 goes next and row 2 never does
        rows = {
            0: {0: 1, 1: 2, 6: 3},
            1: {0: 2, 2: 1, 7: 2, 8: 2},
            2: {0: 1, 1: -1, 6: 3, 9: 7},
            3: {2: 3, 10: 5},
        }
        at = column_index(rows)
        pivots = znf._unit_pivots(rows, at)
        assert next(pivots) == (0, 0)
        assert next(pivots) == (1, 2)
        assert rows == {
            1: {2: 1, 7: 2, 8: 2, 1: -4, 6: -6},
            2: {1: -3, 9: 7},
            3: {2: 3, 10: 5},
        }
        assert next(pivots, None) is None
        assert rows == {2: {1: -3, 9: 7}, 3: {10: 5, 7: -6, 8: -6, 1: 12, 6: 18}}
        assert {c: hit for c, hit in at.items() if hit} == column_index(rows)

    @settings(max_examples=300, deadline=None)
    @given(invariant_cases() | costly_cases() | norm_cases() | relation_blocks())
    def test_each_pivot_is_a_lone_unit_or_a_unit_of_a_shortest_row(self, m):
        # the pivot set against a recount from scratch at every step
        rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m.data)}
        rows = {i: r for i, r in rows.items() if r}
        at = column_index(rows)
        pivots = 0
        for i, j in znf._unit_pivots(rows, at):
            index = column_index(rows)
            assert {c: hit for c, hit in at.items() if hit} == index
            assert rows[i][j] in (1, -1)
            lone = {c for c, hit in index.items()
                    if len(hit) == 1 and rows[next(iter(hit))][c] in (1, -1)}
            if lone:
                # a unit alone in its column updates no other row
                assert j in lone
            else:
                holders = [len(r) for r in rows.values() if any(v in (1, -1) for v in r.values())]
                assert len(rows[i]) == min(holders)
                assert len(at[j]) == min(len(at[c]) for c, v in rows[i].items() if v in (1, -1))
            pivots += 1
        assert {c: hit for c, hit in at.items() if hit} == column_index(rows)
        assert not any(v in (1, -1) for r in rows.values() for v in r.values())
        assert snf(m).invariants[:pivots] == (1,) * pivots

    @settings(max_examples=200, deadline=None)
    @given(norm_cases() | relation_blocks())
    def test_unit_rich_shapes_match_the_dense_reference(self, m):
        want = snf(m).invariants
        assert snf_invariants(m) == want
        assert sparse_invariants(m) == want
        assert rank_torsion(sparse(m)) == split(want)

    def test_relation_blocks(self):
        # the relation matrices of the direct route, on both paths
        for f in (140, 156):
            rel = distribution_relations(build_af(Q, f))
            want = cokernel_of(dense(rel))
            assert want == cokernel_invariants(rel) == AbGroupInvariants(len(gf_group(Q, f)))

    def test_shapes_and_zeros(self):
        for m in (IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0), IntMatrix.zeros(3, 5),
                  IntMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
                  IntMatrix([[2, 0, 4], [0, 0, 0], [6, 0, 8]])):
            assert snf_invariants(m) == dense_invariants(m)
        assert snf_invariants(IntMatrix.zeros(0, 4)) == ()
        assert snf_invariants(IntMatrix.zeros(3, 5)) == (0, 0, 0)
        assert snf_invariants(IntMatrix([[2, 0, 4], [0, 0, 0], [6, 0, 8]])) == (2, 4, 0)

    def test_schur_complement(self):
        # one unit pivot leaves the 1x1 Schur complement S = +-det = +-2
        for rows in ([[1, 2], [3, 4]], [[-1, 2], [3, -4]], [[2, 1], [4, 3]], [[4, 3], [-2, -1]]):
            assert abs(det2(IntMatrix(rows))) == 2
            assert snf_invariants(IntMatrix(rows)) == (1, 2)
        # a +1 and a -1 pivot in one column, determinant 2
        m = IntMatrix([[1, 1, 0], [-1, 0, 1], [0, 1, 3]])
        assert snf_invariants(m) == dense_invariants(m) == (1, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(monomial_cases())
    def test_monomial_residual_matches_dense_smith(self, m):
        assert snf_invariants(m) == dense_invariants(m)
        assert sparse_invariants(m) == dense_invariants(m)

    def test_monomial_residual_skips_the_dense_stage(self, monkeypatch):
        def refuse(_m):
            raise AssertionError("a monomial residual reached _run_smith")

        monkeypatch.setattr(znf, "_run_smith", refuse)
        assert snf_invariants(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
        assert snf_invariants(IntMatrix([[0, -4, 0], [0, 0, 0], [6, 0, 0]])) == (2, 12, 0)
        m = IntMatrix([[0, 1, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 10], [0, 0, 4, 0]])
        assert snf_invariants(m) == (1, 2, 2, 20)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 40), max_size=24)
           | st.lists(st.sampled_from((1, 2, 4, 6, 9, 12, 2**40, 6**25)), max_size=40))
    def test_divisibility_chain_matches_the_pairwise_sweep(self, entries):
        assert znf._divisibility_chain(entries) == pairwise_chain(entries)

    def test_divisibility_chain_of_equal_entries(self):
        assert znf._divisibility_chain([6] * 512) == (6,) * 512
        assert znf._divisibility_chain([4] * 300 + [6] * 2) == (2, 2) + (4,) * 298 + (12, 12)
        assert znf._divisibility_chain([]) == ()

    def test_dense_stage_sees_only_the_residual(self, monkeypatch):
        # a unimodular sparse block next to a block with no unit entry
        shapes = []
        real = znf._run_smith

        def spy(rows):
            shapes.append((len(rows), len(rows[0])))
            return real(rows)

        monkeypatch.setattr(znf, "_run_smith", spy)
        unimodular = IntMatrix([[1, 1, 0, 0], [2, 3, 1, 0], [0, -1, 0, -1], [0, 0, 3, -2]])
        assert det_laplace(unimodular) in (1, -1)
        m = block_diagonal([unimodular, IntMatrix([[2, 4], [6, 8]]), IntMatrix.zeros(1, 1)])
        assert snf_invariants(m) == (1, 1, 1, 1, 2, 4, 0)
        assert shapes == [(2, 2)]


class TestF2Rank:
    """``two_adic_counts`` at a = 1, the rank modulo 2."""

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(lambda d: sparse_matrix(*d)))
    def test_counts_the_odd_invariant_factors(self, m):
        # unimodular transforms stay invertible mod 2, so the rank mod 2 is
        # the number of odd invariant factors
        assert znf.two_adic_counts(sparse(m), 1) == (sum(1 for d in snf_invariants(m) if d % 2),)

    def test_components_add(self):
        # two blocks on disjoint rows and columns, and an even column
        m = block_diagonal([IntMatrix([[1, 1], [1, 1]]), IntMatrix([[1, 0], [1, 1]]),
                            IntMatrix([[2]])])
        assert znf.two_adic_counts(sparse(m), 1) == (3,)


# entries of every 2-adic valuation up to 3, with odd parts 1 and 3
two_adic_entries = st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6, -8, 12])


def _two_adic_valuation(d: int) -> int:
    return (d & -d).bit_length() - 1


class TestTwoAdicCounts:
    """Invariant factors counted by 2-adic valuation, read modulo 2^a."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
        lambda d: sparse_matrix(*d, entries=two_adic_entries)))
    def test_counts_the_invariant_factors_by_valuation(self, a, m):
        # unimodular transforms stay invertible mod 2^a, so the Smith form
        # mod 2^a has the invariant factors of valuation j < a
        valuations = [_two_adic_valuation(d) for d in snf_invariants(m) if d]
        assert znf.two_adic_counts(sparse(m), a) == tuple(valuations.count(j) for j in range(a))

    def test_components_add_across_groups(self):
        # 80 small components and one of 70 columns (a connected lower
        # bidiagonal), which the reduction takes in separate groups
        small = IntMatrix([[1, 1], [1, 3]])
        chain = IntMatrix([[int(i == j or i == j + 1) for j in range(70)] for i in range(70)])
        m = block_diagonal([small] * 40 + [chain] + [small] * 40)
        valuations = [_two_adic_valuation(d) for d in snf_invariants(m) if d]
        assert (valuations.count(0), valuations.count(1)) == (150, 80)
        assert znf.two_adic_counts(sparse(m), 2) == (150, 80)

    def test_carries_decide_the_next_level(self):
        # sums whose rows carry out of the low bit: invariants 1, 1, 2 and
        # 1, 1, 4, which sums without the carries would swap mod 4
        m = IntMatrix([[0, 3, 1], [1, 1, 2], [1, 0, 1]])
        assert snf_invariants(m) == (1, 1, 2)
        assert znf.two_adic_counts(sparse(m), 2) == (2, 1)
        m = IntMatrix([[0, 1, 1], [3, 2, 3], [1, 1, 0]])
        assert snf_invariants(m) == (1, 1, 4)
        assert znf.two_adic_counts(sparse(m), 3) == (2, 0, 1)

    def test_a_basis_column_enters_the_next_level(self):
        # (1, 2) and (0, 4) span a lattice with invariants 1 and 4; the even
        # part of the span mod 8 needs twice the basis column as well
        m = IntMatrix([[1, 0], [2, 4]])
        assert snf_invariants(m) == (1, 4)
        assert znf.two_adic_counts(sparse(m), 3) == (1, 0, 1)


class TestCokernel:
    """Invariants of Z^rows / im(m), dense and sparse."""

    def test_two_times_identity(self):
        m = IntMatrix.diagonal([2, 2])
        assert cokernel_of(m) == cokernel_invariants(sparse(m)) == AbGroupInvariants(0, (2, 2))

    def test_single_column(self):
        m = IntMatrix([[1], [1]])
        assert cokernel_of(m) == cokernel_invariants(sparse(m)) == AbGroupInvariants(1)

    def test_u4_relation_matrix(self):
        # A(4) has basis [0], [1/4], [1/2], [3/4]; the two level-4 relations
        # are [0] - [0] - [1/2] and [1/2] - [1/4] - [3/4].
        rel = IntMatrix.from_columns([(0, 0, -1, 0), (0, -1, 1, -1)])
        assert cokernel_of(rel) == cokernel_invariants(sparse(rel)) == AbGroupInvariants(2)


def reference_projection(rel, keep):
    """Projection onto span(e_keep) along im(rel), the dense way: invert the
    square matrix [e_keep | basis of im(rel)] through its SNF; None when it
    is not unimodular (the kept coordinates are no complement)."""
    section = IntMatrix.from_columns(
        [[1 if i == k else 0 for i in range(rel.rows)] for k in keep], rows=rel.rows
    )
    w = section.hstack(image_basis(rel))
    if w.rows != w.cols:
        return None
    res = snf(w)
    if any(d != 1 for d in res.invariants):
        return None
    return (res.right * res.left).submatrix(range(len(keep)), range(rel.rows))


def sparse(m: IntMatrix) -> SparseMatrix:
    return SparseMatrix(m.rows, [dict(enumerate(c)) for c in m.columns()])


def project(rel: IntMatrix, keep) -> IntMatrix:
    """complement_projection on the sparse copy of ``rel``, read back dense."""
    return dense(complement_projection(sparse(rel), keep))


keep_cases = small_matrices.flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, max(m.rows - 1, 0)), unique=True, max_size=m.rows)
        if m.rows
        else st.just([]),
    )
)


@st.composite
def peelable_cases(draw):
    """Relations with a ±1 triangular block on the rows outside keep_rows.

    The rows outside keep_rows get an order r_0, r_1, ...; the pivot column
    of r_t is ±1 at r_t, arbitrary at r_0 .. r_{t-1} and on the kept rows,
    and zero elsewhere.  Extra columns are integer combinations of the pivot
    columns, and all columns are shuffled.
    """
    n = draw(st.integers(0, 7))
    order = draw(st.permutations(range(n)))
    split = draw(st.integers(0, n))
    keep, peeled = list(order[:split]), order[split:]
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 10**12 + 1])
    pivots = []
    for t, r in enumerate(peeled):
        col = [0] * n
        col[r] = draw(st.sampled_from([1, -1]))
        for i in keep + peeled[:t]:
            col[i] = draw(entries)
        pivots.append(col)
    extra = []
    for _ in range(draw(st.integers(0, 3)) if pivots else 0):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(pivots), max_size=len(pivots)))
        extra.append([sum(k * c[i] for k, c in zip(coeffs, pivots)) for i in range(n)])
    cols = draw(st.permutations(pivots + extra))
    return IntMatrix.from_columns(cols, rows=n), draw(st.permutations(keep))


class TestComplementProjection:
    def test_unit_pivots(self):
        # im = span(e2, e1 + e3): e0 and e1 complement it, e0 and e3 too
        rel = IntMatrix.from_columns([(0, 0, -1, 0), (0, -1, 1, -1)])
        # (v = v0 e0 + (v1 - v3) e1 + v2 e2 + v3 (e1 + e3))
        p = project(rel, [0, 1])
        assert p == IntMatrix([[1, 0, 0, 0], [0, 1, 0, -1]])
        assert (p * rel).is_zero()
        assert project(rel, [0, 3]) == IntMatrix([[1, 0, 0, 0], [0, -1, 0, 1]])

    def test_gcd_fallback(self):
        # row 0 holds 2 and 3, no unit.  e1 and e2 do complement the lattice,
        # which is spanned by (1, 2, -1), but only an extended-gcd step on
        # the two columns would reach the pivot 1 = gcd(2, 3).  The peel
        # takes no such step, so it refuses rather than fold.
        rel = IntMatrix.from_columns([(2, 4, -2), (3, 6, -3)])
        assert reference_projection(rel, [1, 2]) == IntMatrix([[-2, 1, 0], [1, 0, 1]])
        with pytest.raises(NotAComplement, match="row 0 is not peeled"):
            project(rel, [1, 2])

    def test_gcd_fallback_without_unit_fails(self):
        rel = IntMatrix.from_columns([(2, 2), (4, 4)])
        with pytest.raises(NotAComplement):
            project(rel, [1])

    def test_relations_meeting_kept_span_fail(self):
        rel = IntMatrix.from_columns([(1, 0), (0, 1)])
        with pytest.raises(NotAComplement):
            project(rel, [1])

    def test_unreached_row_fails(self):
        with pytest.raises(NotAComplement):
            project(IntMatrix.from_columns([(0, 1)]), [1])

    def test_no_relations(self):
        assert project(IntMatrix.zeros(2, 0), [1, 0]) == IntMatrix([[0, 1], [1, 0]])
        with pytest.raises(NotAComplement):
            project(IntMatrix.zeros(2, 0), [1])

    def test_bad_keep_rows(self):
        with pytest.raises(ShapeMismatch):
            project(IntMatrix.identity(2), [0, 0])
        with pytest.raises(ShapeMismatch):
            project(IntMatrix.identity(2), [2])

    @settings(max_examples=300, deadline=None)
    @given(keep_cases)
    def test_matches_dense_reference(self, case):
        # soundness: every projection returned is the reference one, and a
        # case with no complement always raises (a complement that needs a
        # non-unit or non-triangular step may raise too)
        rel, keep = case
        want = reference_projection(rel, keep)
        try:
            got = project(rel, keep)
        except NotAComplement:
            return
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(peelable_cases())
    def test_peels_every_triangular_relation(self, case):
        # completeness on the relations the peel is built for
        rel, keep = case
        want = reference_projection(rel, keep)
        assert want is not None
        assert project(rel, keep) == want


class TestFreeQuotient:
    # im(R) = span(e2, e1 + e3), free on e0 and e1
    rel = sparse(IntMatrix.from_columns([(0, 0, -1, 0), (0, -1, 1, -1)]))

    def quotient(self):
        return FreeQuotient(self.rel, complement_projection(self.rel, [0, 1]),
                            SparseMatrix(4, [{0: 1}, {1: 1}]))

    def test_induces_an_operator_that_preserves_the_relations(self):
        q = self.quotient()
        assert q.projection * q.section == SparseMatrix.identity(2)
        # swapping e1 and e3 fixes e2 and e1 + e3; on the quotient e3 = -e1
        swap = SparseMatrix(4, [{0: 1}, {3: 1}, {2: 1}, {1: 1}])
        assert dense(checked_induce(q, swap)) == IntMatrix([[1, 0], [0, -1]])
        # e0 -> e2 sends e0 to a relation, so it induces 0 there
        kill = SparseMatrix(4, [{2: 1}, {1: 1}, {2: 1}, {3: 1}])
        assert dense(checked_induce(q, kill)) == IntMatrix([[0, 0], [0, 1]])

    def test_refuses_an_operator_that_breaks_the_relations(self):
        # swapping e0 and e2 sends the relation e2 to e0, which survives
        swap = SparseMatrix(4, [{2: 1}, {1: 1}, {0: 1}, {3: 1}])
        with pytest.raises(InducedOperatorUndefined):
            checked_induce(self.quotient(), swap)


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_row_sum(self):
        k = kernel_basis(IntMatrix([[1, 1]]))
        assert k.cols == 1
        assert set(k.column(0)) == {1, -1}

    def test_rank_one(self):
        # rows are (2,4) and (1,2); kernel generated by (2,-1)
        k = kernel_basis(IntMatrix([[2, 4], [1, 2]]))
        assert k.cols == 1
        col = k.column(0)
        assert col in ((2, -1), (-2, 1))

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_kernel_properties(self, m):
        k = kernel_basis(m)
        assert (m * k).is_zero()
        # saturated: SNF of the basis matrix has all invariants 1
        assert all(d == 1 for d in snf_invariants(k))
        # full kernel: rank-nullity against the rank of m
        rank = sum(1 for d in snf_invariants(m) if d)
        assert k.cols == m.cols - rank


class TestSolveAndLattices:
    def test_solve_exact(self):
        a = IntMatrix([[2, 0], [0, 3]])
        b = IntMatrix.from_columns([(4, 9)])
        assert a * solve(a, b) == b

    def test_solve_unsolvable(self):
        a = IntMatrix([[2]])
        with pytest.raises(NoIntegerSolution):
            solve(a, IntMatrix([[3]]))

    @settings(max_examples=100, deadline=None)
    @given(small_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_solve_recovers_membership(self, m, coeffs):
        # any integer combination of columns must be solvable back
        if m.cols == 0:
            return
        coeffs = (coeffs * m.cols)[: m.cols]
        vec = tuple(
            sum(m[i, j] * coeffs[j] for j in range(m.cols)) for i in range(m.rows)
        )
        b = IntMatrix.from_columns([vec], rows=m.rows)
        assert m * solve(m, b) == b

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_image_basis_spans(self, m):
        basis = image_basis(m)
        # a basis has full column rank and spans exactly the column lattice
        assert all(d != 0 for d in snf_invariants(basis))
        assert lattice_contains(basis, m)
        assert lattice_contains(m, basis)

    def test_preimage_lattice(self):
        # {x in Z^2 : 2x1 + 0x2 in 4Z} = 2Z x Z
        a = IntMatrix([[2, 0]])
        den = IntMatrix([[4]])
        pre = preimage_lattice(a, den)
        assert lattice_contains(pre, IntMatrix.from_columns([(2, 0), (0, 1)]))
        assert not lattice_contains(pre, IntMatrix.from_columns([(1, 0)]))


def same_lattice(*ms):
    """Whether the column lattices of ``ms`` agree, judged by the reference
    ``snf``: spans of equal rank and equal covolume inside the span, for
    each matrix and for all of them side by side."""
    both = ms[0]
    for m in ms[1:]:
        both = both.hstack(m)

    def shape(m):
        nonzero = [d for d in snf(m).invariants if d]
        product = 1
        for d in nonzero:
            product *= d
        return len(nonzero), product

    return len({shape(m) for m in (*ms, both)}) == 1


def pivot_rows(basis):
    """First nonzero row of each column, or None for a zero column."""
    return [next((i for i, x in enumerate(col) if x), None) for col in basis.columns()]


same_row_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda d: st.tuples(sparse_matrix(d[0], d[1]), sparse_matrix(d[0], d[2]))
)


class TestHermiteBasis:
    """``image_basis``, ``kernel_basis`` and ``preimage_lattice`` return
    reduced Hermite bases; each is held to the reference ``snf``."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_matrices, invariant_cases()))
    def test_image_basis_is_reduced_hermite(self, m):
        basis = image_basis(m)
        pivots = pivot_rows(basis)
        assert None not in pivots and pivots == sorted(set(pivots))
        for j, p in enumerate(pivots):
            assert basis[p, j] > 0
            for k in range(basis.cols):
                if k != j:
                    assert 0 <= basis[p, k] < basis[p, j]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_matrices, invariant_cases()))
    def test_image_basis_spans_the_input(self, m):
        basis = image_basis(m)
        assert basis.cols == sum(1 for d in snf(m).invariants if d)
        assert same_lattice(m, basis)

    @settings(max_examples=200, deadline=None)
    @given(same_row_pairs)
    def test_preimage_matches_smith_kernel(self, pair):
        a, den = pair
        # {x : a x in lattice(den)} is the first a.cols rows of ker [a | den]
        both = a.hstack(den)
        res = snf(both)
        zero = [j for j in range(both.cols) if j >= len(res.invariants) or res.invariants[j] == 0]
        want = res.right.submatrix(range(a.cols), zero)
        pre = preimage_lattice(a, den)
        assert same_lattice(pre, want)
        assert pre.cols == sum(1 for d in snf(want).invariants if d)

    def test_lattice_operations_run_no_smith_reduction(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a lattice operation ran a Smith reduction")

        monkeypatch.setattr(znf, "_run_smith", refuse)
        a = IntMatrix([[2, 4, 1], [6, 8, 3]])
        assert image_basis(a) == IntMatrix([[1, 0], [3, 4]])
        assert (a * kernel_basis(a)).is_zero() and kernel_basis(a).cols == 1
        assert a * solve(a, IntMatrix([[5], [11]])) == IntMatrix([[5], [11]])
        assert lattice_contains(a, IntMatrix([[0], [4]]))
        assert not lattice_contains(a, IntMatrix([[0], [2]]))
        assert preimage_lattice(a, IntMatrix([[0], [2]])).cols == 2

    def test_uprime_basis_entries_stay_below_their_pivots(self):
        basis = uprime_lattice(84).basis
        assert basis.rows == basis.cols == 24
        for j, p in enumerate(pivot_rows(basis)):
            assert all(0 <= x < basis[p, j] for k, x in enumerate(basis.row(p)) if k != j)


class TestSubquotient:
    def test_z_mod_2(self):
        num = IntMatrix.identity(1)
        den = IntMatrix([[2]])
        assert subquotient(num, den).invariants == AbGroupInvariants(0, (2,))

    def test_homology_pair(self):
        # 0 -> Z --2--> Z -> 0 concentrated so that H_0 = Z/2
        d_out = IntMatrix.zeros(0, 1)
        d_in = IntMatrix([[2]])
        assert homology_pair(d_out, d_in).invariants == AbGroupInvariants(0, (2,))


def test_block_diagonal():
    b = block_diagonal([IntMatrix([[2]]), IntMatrix([[0, 1]])])
    assert b.rows == 2 and b.cols == 3
    assert b[0, 0] == 2 and b[1, 2] == 1 and b[1, 0] == 0


def test_matrix_shape_errors():
    with pytest.raises(ShapeMismatch):
        IntMatrix([[1], [2, 3]])
    with pytest.raises(ShapeMismatch):
        IntMatrix.identity(2) * IntMatrix.identity(3)
