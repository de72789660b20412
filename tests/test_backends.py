"""The backend interface: every difference between Z and F_q[T] is a method
of the backend classes, and each method meets its contract on both."""

import ast
import inspect
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import uod
from uod.arith import ARCHIMEDEAN, FunctionFieldBackend, poly_trim

SRC = Path(uod.__file__).parent
FF = [FunctionFieldBackend(q) for q in (2, 3, 4, 5)]


def _attribute_reads(path, predicate):
    tree = ast.parse(path.read_text(), filename=path.name)
    return [
        (path.name, node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and predicate(node.attr)
    ]


def test_no_module_branches_on_backend_kind():
    reads = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _attribute_reads(path, lambda attr: attr == "kind")]
    assert reads == []


def _callee_name(node):
    callee = getattr(node, "func", None)
    return getattr(callee, "id", getattr(callee, "attr", None))


def test_no_smith_call_asks_for_transforms():
    # the dense reducer and its one entry point take the matrix alone, and
    # every call in the package passes exactly that, so no reduction in
    # src/uod can track a transform; snf, which did, lives in the tests
    from uod import znf

    assert list(inspect.signature(znf._run_smith).parameters) == ["rows"]
    assert list(inspect.signature(znf._Smith).parameters) == ["rows"]
    assert not hasattr(znf, "snf") and not hasattr(uod, "snf")
    calls = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
        if _callee_name(node) in ("_run_smith", "_Smith")
    ]
    assert calls
    assert all(len(call.args) == 1 and not call.keywords for _, call in calls)


def test_distmod_does_no_polynomial_arithmetic():
    path = SRC / "distmod.py"
    hits = _attribute_reads(path, lambda attr: attr == "fq" or attr.startswith("poly_"))
    tree = ast.parse(path.read_text())
    hits += [
        (path.name, node.lineno, node.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id.startswith("poly_")
    ]
    hits += [
        (path.name, node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("poly_")
    ]
    assert hits == []


# ---------------------------------------------------------------------------
# strategies: a backend with two coprime ideals, or an ideal with a divisor


@st.composite
def monic(draw, bk, max_deg=3):
    d = draw(st.integers(0, max_deg))
    return tuple(draw(st.lists(st.integers(0, bk.q - 1), min_size=d, max_size=d))) + (1,)


@st.composite
def residue(draw, bk, f):
    if bk is ARCHIMEDEAN:
        return draw(st.integers(0, f - 1))
    d = len(f) - 1
    return poly_trim(draw(st.lists(st.integers(0, bk.q - 1), min_size=d, max_size=d)))


@st.composite
def coprime_pair(draw):
    """(bk, m, n, x): m and n coprime with m not a unit, x a residue mod mn."""
    bk = draw(st.sampled_from([ARCHIMEDEAN] + FF))
    if bk is ARCHIMEDEAN:
        m, n = draw(st.integers(2, 300)), draw(st.integers(1, 300))
    else:
        m = draw(monic(bk).filter(lambda p: len(p) > 1))
        n = draw(monic(bk))
    assume(bk.gcd(m, n) == bk.one)
    return bk, m, n, draw(residue(bk, bk.mul(m, n)))


@st.composite
def unit_over_divisor(draw):
    """(bk, f, base, x): base | f, f not a unit, x a unit residue mod base."""
    bk = draw(st.sampled_from([ARCHIMEDEAN] + FF))
    f = draw(st.integers(2, 600) if bk is ARCHIMEDEAN
             else monic(bk).filter(lambda p: len(p) > 1))
    base = draw(st.sampled_from(bk.divisors(f)))
    x = draw(residue(bk, base) if bk.norm(base) > 1 else st.just(bk.residue_of(bk.one, base)))
    assume(bk.coprime(x, base))
    return bk, f, base, x


class TestBackendMethods:
    @settings(max_examples=300, deadline=None)
    @given(coprime_pair())
    def test_crt_lift_meets_both_congruences(self, case):
        bk, m, n, x = case
        t = bk.crt_lift(x, m, n)
        assert bk.residue_of(t, bk.mul(m, n)) == t
        assert bk.residue_of(t, m) == bk.residue_of(x, m)
        assert bk.residue_of(t, n) == bk.residue_of(bk.one, n)

    def test_crt_lift_memo_tells_fields_apart(self):
        # the same tuples (m, n) = (T + 1, T) over F_3 and F_5: T = -1 mod
        # T + 1 has inverse -1, which is code 2 in F_3 and code 4 in F_5
        m, n = (1, 1), (0, 1)
        for q in (3, 5, 3):
            bk = FunctionFieldBackend(q)
            t = bk.crt_lift((0,), m, n)
            assert bk.residue_of(t, m) == ()
            assert bk.residue_of(t, n) == (1,)

    @settings(max_examples=300, deadline=None)
    @given(unit_over_divisor())
    def test_least_unit_lift_is_a_least_coprime_lift(self, case):
        bk, f, base, x = case
        lift = bk.least_unit_lift(x, base, f)
        lifts = [a for a in bk.residues(f)
                 if bk.coprime(a, f) and bk.residue_of(a, base) == x]
        assert lift == min(lifts, key=bk.residue_key)

    def test_least_unit_lift_matches_the_full_scan_over_f2_and_f3(self):
        # every level of degree <= 5 with a nontrivial base f / rad f, the
        # base the depth transversal lifts from, and every residue mod base
        for bk in (FunctionFieldBackend(2), FunctionFieldBackend(3)):
            for f in (low + (0,) * (n - len(low)) + (1,)
                      for n in range(1, 6) for low in bk.residues(bk.power((0, 1), n))):
                base = bk.divide(f, bk.radical(f))
                if base == bk.one:
                    continue
                first = {}
                for a in bk.residues(f):
                    if bk.coprime(a, f):
                        first.setdefault(bk.residue_of(a, base), a)
                for x in bk.residues(base):
                    assert bk.least_unit_lift(x, base, f) == first.get(x), (bk.q, f, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6))
    def test_rank_theorem_exception_over_z(self, f):
        assert ARCHIMEDEAN.outside_rank_theorem(f) == (f % 4 == 2)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FF).flatmap(lambda bk: st.tuples(st.just(bk), monic(bk, 5))))
    def test_rank_theorem_exception_never_over_fq(self, case):
        bk, f = case
        assert not bk.outside_rank_theorem(f)

    @settings(max_examples=300, deadline=None)
    @given(coprime_pair())
    def test_reduce_fraction_is_lowest_terms(self, case):
        bk, m, n, a = case
        f = bk.mul(m, n)
        order, num = bk.reduce_fraction(a, f)
        assert bk.divides(order, f)
        if bk.norm(order) == 1:
            assert not a and num == bk.residue_of(bk.one, order)
            return
        assert bk.coprime(num, order) and bk.residue_of(num, order) == num
        # a/f = num/order, i.e. a = num * (f/order)
        assert bk.residue_of(bk.mul(num, bk.divide(f, order)), f) == a

    def test_comparison_nu(self):
        assert ARCHIMEDEAN.comparison_nu_ok([1, -1, 1])
        assert not ARCHIMEDEAN.comparison_nu_ok([1, 2])
        assert not ARCHIMEDEAN.comparison_nu_ok([0])
        assert all(bk.comparison_nu_ok([0, 2, -3]) for bk in FF)

