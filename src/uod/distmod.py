"""The free module on torsion classes, its operators, and the universal
ordinary distribution at a finite level.

A(f) is the free abelian group on Xi(f).  Each maximal p | f acts by the
fiber-sum operator: on classes of order dividing f/p this is the honest sum
over the Y_p fiber (which stays inside Xi(f)); on the boundary layer, whose
fibers escape the level, the operator is completed by the scalar nu_p, the
value it takes on the level-f^infinity quotient.  With that completion all
operators commute, and they descend to the quotient

    U(f) = A(f) / < nu_p xi - sum_{Y_p eta = xi} eta :  p | f, xi in Xi(f/p) >

which is Z-free of rank |G_f| with basis the depth-zero classes.  The depth
of a class of exact order f is computed from the torsor decomposition over a
fixed transversal of ker(G_f -> G_{f/rad f}) and the per-prime kernel
components; depth zero means no kernel component is trivial.

Every operator on A(f) sends a class to a short multiset of classes (a
group element or the sign permutes Xi(f), X_p sends a class to its fiber
sum), so operators, the relation matrix, the section and the projection are
``znf.SparseMatrix`` values with about one nonzero per class.  Building
them, certifying that all operators commute and that gamma0 has finite
order (``chainkit.ActionModule``), and certifying that the relations are
the columns of the nu_p - X_p, so that every commuting operator preserves
them and induces an operator on U(f), all cost O(nnz), not |Xi(f)|^2.
The induced |G_f| x |G_f| operators are ``SparseMatrix`` values too, and
the Tate pair of ``signh`` takes them as they are; the callers that do
dense lattice algebra on them call ``dense()`` themselves.

``u_module`` certifies that basis with one triangular peel of the relation
matrix (``znf.complement_projection``): every class outside Xi_0(f) gets a
±1 pivot in a triangular order and every other relation is a combination
of the pivot ones, so A(f) is the direct sum of the span of Xi_0(f) and the
relation lattice, and the peel yields the projection onto U(f).
``xi0_basis`` keeps an independent check through the invariant factors of
the relations, taken sparsely: U(f) is free of rank |Xi_0(f)|, and the
relations reach every class outside Xi_0(f).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .arith import (
    GfElement,
    GfGroup,
    XiClass,
    fiber_map,
    g_action,
    gf_group,
    sign_group,
    xi_classes,
    xi_in_level,
    y_map,
)
from .chainkit import ActionModule
from .znf import (
    AbGroupInvariants,
    FreeQuotient,
    IntMatrix,
    NotAComplement,
    SparseMatrix,
    _invariants,
    cokernel_invariants,
    complement_projection,
    kernel_basis,
)


class OrderMismatch(ValueError):
    pass


class BasisCertificateFailed(RuntimeError):
    pass


class StructureCheckFailed(RuntimeError):
    """A theorem-backed structural assertion failed; indicates a bug."""


def nu_value(bk, nu: dict, g) -> int:
    """Multiplicative extension of the per-prime values to any divisor."""
    out = 1
    for p, e in bk.factor(g):
        out *= nu.get(p, 1) ** e
    return out


def x_op_name(bk, p) -> str:
    return f"X[{bk.format_ideal(p)}]"


def g_op_name(bk, residue) -> str:
    return f"G[{bk.format_residue(residue)}]"


@dataclass
class AfModule:
    """A(f) with its operator package."""

    backend: object
    level: object
    nu: dict
    basis: tuple
    index: dict
    primes: tuple
    fibers: dict            # p -> {xi in Xi(f/p): full Y_p fiber in Xi(f)}
    operators: ActionModule
    group: GfGroup

    @property
    def rank(self) -> int:
        return len(self.basis)

    def x_operator(self, p) -> SparseMatrix:
        return self.operators.operator(x_op_name(self.backend, p))


def class_matrix(images, index: dict) -> SparseMatrix:
    """Matrix of a map of basis classes: column j is the basis vector of
    ``images[j]`` in the basis numbered by ``index``."""
    return SparseMatrix(len(index), [{index[target]: 1} for target in images])


def build_af(bk, f, nu: dict | None = None) -> AfModule:
    """Assemble A(f): basis Xi(f), fiber-sum operators, group generators, sign."""
    nu = dict(nu or {})
    basis = tuple(xi_classes(bk, f))
    index = {xi: i for i, xi in enumerate(basis)}
    primes = tuple(p for p, _ in bk.factor(f))
    fibers = {p: fiber_map(bk, p, f) for p in primes}
    rank = len(basis)

    ops = {}
    for p in primes:
        sub_level = bk.divide(f, p)
        cols = []
        for xi in basis:
            if xi_in_level(bk, xi, sub_level):
                col = {}
                for eta in fibers[p][xi]:
                    col[index[eta]] = col.get(index[eta], 0) + 1
            else:
                col = {index[xi]: nu.get(p, 1)}
            cols.append(col)
        ops[x_op_name(bk, p)] = SparseMatrix(rank, cols)

    group = gf_group(bk, f)
    for gen in group.generators():
        ops[g_op_name(bk, gen.residue)] = class_matrix(
            [g_action(bk, gen, xi) for xi in basis], index
        )
    ops["gamma0"] = class_matrix([arith.sign_action(bk, xi) for xi in basis], index)

    module = ActionModule(rank, ops, {x_op_name(bk, p): nu.get(p, 1) for p in primes},
                          order_bound=bk.sign_order)
    af = AfModule(bk, f, nu, basis, index, primes, fibers, module, group)
    _check_fiber_sums(af)
    return af


def _check_fiber_sums(af: AfModule):
    # X_p xi must be the full Y_p fiber sum wherever that fiber stays at level f
    bk = af.backend
    for p in af.primes:
        sub = bk.divide(af.level, p)
        want = bk.norm(p)
        for xi in af.basis:
            if xi_in_level(bk, xi, sub):
                if len(af.fibers[p][xi]) != want:
                    raise StructureCheckFailed(
                        f"fiber over {xi} has {len(af.fibers[p][xi])} elements, expected {want}"
                    )


def distribution_relations(af: AfModule) -> SparseMatrix:
    """Columns nu_p xi - sum(fiber) for each maximal p | f and xi in Xi(f/p)."""
    bk = af.backend
    index = af.index
    cols = []
    for p in af.primes:
        sub = bk.divide(af.level, p)
        nu_p = af.nu.get(p, 1)
        for xi in af.basis:
            if not xi_in_level(bk, xi, sub):
                continue
            col = {index[xi]: nu_p}
            for eta in af.fibers[p][xi]:
                col[index[eta]] = col.get(index[eta], 0) - 1
            cols.append(col)
    return SparseMatrix(af.rank, cols)


@dataclass(frozen=True)
class UModule(FreeQuotient):
    """U(f), the free quotient of A(f) by the distribution relations, kept
    on the depth-zero classes: ``section`` is |Xi(f)| x rank with the basis
    classes as columns, ``projection`` rank x |Xi(f)|.  ``operators`` holds
    the operators of A(f) induced by ``u_module`` with no product check,
    which its relation certificate makes redundant; any other operator goes
    through the checked ``induce``."""

    parent: AfModule
    invariants: AbGroupInvariants
    basis_classes: tuple
    operators: dict           # induced operators on the free basis, SparseMatrix

    @property
    def rank(self) -> int:
        return self.invariants.free_rank

    def reduce_vector(self, vector) -> tuple:
        """The coordinates on U(f) of a vector of A(f), from the sparse
        projection columns."""
        column = SparseMatrix(len(vector), [dict(enumerate(vector))])
        return (self.projection * column).column(0)


def u_module(af: AfModule) -> UModule:
    """U(f) on the depth-zero basis, with its induced operators.

    The depth-zero basis theorem says that Xi_0(f) spans a complement of the
    distribution relation lattice in A(f).  One triangular peel of the
    sparse relations (``complement_projection``) certifies exactly that and
    returns the projection along the relations, so U(f) = Z^{|G_f|} follows
    with no Smith reduction.  Only when the certificate fails is the
    cokernel computed, to tell a wrong structure (StructureCheckFailed) from
    a basis the peel could not certify (BasisCertificateFailed).

    The relations are then certified, in O(nnz), to be the nonzero columns
    of the nu_p - X_p; a mismatch raises StructureCheckFailed.  Every
    operator of A(f) commutes with the X_p, so it preserves the relations,
    and its induced operator is P op S with no P (op R) product.  The
    induced operators are ``SparseMatrix`` values, |G_f| x |G_f|.
    """
    bk = af.backend
    rel = distribution_relations(af)
    expected_rank = len(af.group)
    xi0 = [xi for xi in af.basis if depth(bk, xi) == 0]
    try:
        projection = complement_projection(rel, [af.index[xi] for xi in xi0])
    except NotAComplement:
        projection = None
    if projection is None or len(xi0) != expected_rank:
        _diagnose(af, rel, len(xi0), expected_rank)
    _certify_relations(af, rel)
    section = class_matrix(xi0, af.index)
    induced = {}
    invariants = AbGroupInvariants(expected_rank)
    u = UModule(relations=rel, projection=projection, section=section, parent=af,
                invariants=invariants, basis_classes=tuple(xi0), operators=induced)
    for name, op in af.operators.operators.items():
        induced[name] = u.induce_preserving(op)
    return u


def _certify_relations(af: AfModule, rel: SparseMatrix):
    """Check that the nonzero columns of ``rel`` are those of the nu_p - X_p,
    over ``af.primes`` and then the basis, in that order; O(nnz).

    Then im(rel) = sum_p im(nu_p - X_p).  ``ActionModule`` has certified
    that every operator of A(f) commutes with each X_p, so each maps every
    im(nu_p - X_p), and with them im(rel), into itself: the relations are
    preserved with no product against the projection.
    """
    expected = []
    for p in af.primes:
        nu_p = af.nu.get(p, 1)
        for j, col in enumerate(af.x_operator(p).entries):
            diff = {i: -v for i, v in col.items()}
            diff[j] = diff.get(j, 0) + nu_p
            if any(diff.values()):
                expected.append({i: v for i, v in diff.items() if v})
    if [col for col in rel.entries if col] != expected:
        raise StructureCheckFailed(
            "the distribution relations are not the nonzero columns of nu_p - X_p"
        )


def _diagnose(af: AfModule, rel: SparseMatrix, basis_size: int, expected_rank: int):
    """Raise the error that explains why the peel did not certify Xi_0(f)."""
    found = cokernel_invariants(rel)
    if not found.is_free or found.free_rank != expected_rank:
        raise StructureCheckFailed(
            f"U({af.backend.format_ideal(af.level)}) computed as {found}, "
            f"expected free of rank {expected_rank}"
        )
    if basis_size != expected_rank:
        raise StructureCheckFailed(
            f"|Xi_0 ∩ Xi(f)| = {basis_size} != |G_f| = {expected_rank}"
        )
    raise BasisCertificateFailed(
        "the triangular peel found no unit pivot order that certifies the "
        "depth-zero classes as a complement of the relation lattice; this "
        "does not by itself refute the basis (U(f) is free of rank "
        f"{expected_rank})"
    )


# ---------------------------------------------------------------------------
# The depth partition of Xi


@dataclass(frozen=True)
class PartitionTag:
    """Torsor decomposition of a class of exact order f.

    sigma lives at level f/rad(f) (its chosen lift is sigma_lift); kappas maps
    each maximal p | f to the kernel component at level f.  The depth counts
    trivial kernel components; depth zero marks the basis classes.
    """

    xi: XiClass
    depth: int
    sigma: GfElement
    sigma_lift: GfElement
    kappas: dict


class _LevelPartition:
    """Per-level transversal and kernel data used to tag exact-order classes."""

    def __init__(self, bk, f):
        self.backend = bk
        self.level = f
        self.group = gf_group(bk, f)
        self.primes = [p for p, _ in bk.factor(f)]
        self.prime_powers = {p: bk.power(p, e) for p, e in bk.factor(f)}
        self.radical = bk.radical(f)
        self.base = bk.divide(f, self.radical)
        self.base_group = gf_group(bk, self.base)
        self.kernels = {
            p: frozenset(
                e.residue
                for e in self.group
                if self._is_one_mod(e.residue, bk.divide(f, p))
            )
            for p in self.primes
        }
        self.one = self.group.identity.residue
        self.transversal = self._build_transversal()

    def _is_one_mod(self, residue, modulus) -> bool:
        bk = self.backend
        if bk.norm(modulus) == 1:
            return True
        return bk.residue_of(residue, modulus) == bk.residue_of(bk.one, modulus)

    def _build_transversal(self) -> dict:
        bk = self.backend
        if bk.norm(self.base) == 1:
            return {self.base_group.identity.residue: self.one}
        gamma_f = sign_group(bk, self.level).gamma
        gamma_base = self.group.reduce_to(gamma_f, self.base)
        stabilize = self.group.element_order(
            self.group.element(gamma_f.residue)
        ) == self.base_group.element_order(self.base_group.element(gamma_base.residue))
        trans: dict = {}
        for e in self.base_group:
            if e.residue in trans:
                continue
            rep = bk.least_unit_lift(e.residue, self.base, self.level)
            if rep is None:
                raise StructureCheckFailed("no coprime lift found")
            if not stabilize:
                trans[e.residue] = rep
                continue
            ub, lift = e.residue, rep
            while True:
                trans[ub] = lift
                ub = bk.residue_mul(ub, gamma_base.residue, self.base)
                if ub == e.residue:
                    break
                lift = bk.residue_mul(lift, gamma_f.residue, self.level)
        return trans

    def _crt_component(self, x_residue, p):
        """The factor of x in ker(G_f -> G_{f/p}) under the CRT splitting."""
        bk = self.backend
        pe = self.prime_powers[p]
        co = bk.divide(self.level, pe)
        if bk.norm(co) == 1:
            return x_residue
        return bk.crt_lift(x_residue, pe, co)

    def decompose(self, residue):
        """residue = sigma_lift * prod kappas, all inside G_f."""
        bk = self.backend
        base_res = bk.residue_of(residue, self.base) if bk.norm(self.base) > 1 else (
            self.base_group.identity.residue
        )
        lift = self.transversal[base_res]
        lift_inv = bk.residue_inverse(lift, self.level)
        x = bk.residue_mul(residue, lift_inv, self.level)
        kappas = {}
        check = self.one
        for p in self.primes:
            comp = self._crt_component(x, p)
            if comp not in self.kernels[p]:
                raise StructureCheckFailed("CRT component missed its kernel")
            kappas[p] = comp
            check = bk.residue_mul(check, comp, self.level)
        if check != x:
            raise StructureCheckFailed("kernel components do not multiply back")
        return base_res, lift, kappas


_partition_cache: dict = {}


def level_partition(bk, f) -> _LevelPartition:
    key = (bk.key, bk.ideal_key(f))
    if key not in _partition_cache:
        _partition_cache[key] = _LevelPartition(bk, f)
    return _partition_cache[key]


def partition_tag(bk, xi: XiClass, context_level=None) -> PartitionTag:
    """Depth tag of a class, computed at its exact order."""
    if context_level is not None and not bk.divides(xi.order, context_level):
        raise OrderMismatch(
            f"class of order {bk.format_ideal(xi.order)} does not divide the context level"
        )
    f = xi.order
    if bk.norm(f) == 1:
        trivial = gf_group(bk, f).identity
        return PartitionTag(xi, 0, trivial, trivial, {})
    part = level_partition(bk, f)
    base_res, lift, kappas = part.decompose(xi.num)
    depth_count = sum(1 for v in kappas.values() if v == part.one)
    return PartitionTag(
        xi,
        depth_count,
        GfElement(bk.key, part.base, base_res),
        GfElement(bk.key, f, lift),
        {p: GfElement(bk.key, f, v) for p, v in kappas.items()},
    )


def depth(bk, xi: XiClass) -> int:
    return partition_tag(bk, xi).depth


def xi0_set(bk, f) -> list[XiClass]:
    """Depth-zero classes at level f; cardinality |G_f| by the counting lemma."""
    return [xi for xi in xi_classes(bk, f) if depth(bk, xi) == 0]


@dataclass(frozen=True)
class Xi0Basis:
    classes: tuple                 # Xi_0 at the module level
    pair_index: tuple              # (divisor g, class xi) per basis column
    lattice_invariants: tuple      # SNF of the X_g xi change of basis
    quotient_invariants: tuple     # SNF of the images of Xi_0 in U(f)
    unimodular: bool


def xi0_basis(af: AfModule) -> Xi0Basis:
    """Certify the monomial basis of A(f) and the induced basis of U(f).

    The first certificate checks that the family X_g xi (g | f, xi depth-zero
    at level f/g) is a Z-basis of A(f): the change-of-basis matrix must be
    square with all invariant factors 1.  The second checks that Xi_0(f) maps
    to a basis of U(f) with two invariants-only reductions of the relation
    matrix: U(f) must be free of rank |Xi_0(f)|, and the relations restricted
    to the classes outside Xi_0(f) must have all invariant factors 1, one per
    such class.  The latter says that every class outside Xi_0(f) is a
    combination of Xi_0(f) modulo the relations, so the Xi_0 images generate
    U(f); |Xi_0(f)| generators of Z^{|Xi_0(f)|} are a basis.  Both
    matrices reach the unit-pivot invariants as sparse columns, and each
    class's depth is computed once.  Neither reduction shares code with the
    peel ``u_module`` uses.
    """
    bk = af.backend
    f = af.level
    # a class has the same depth at every level that contains it
    xi0_here = [xi for xi in af.basis if depth(bk, xi) == 0]
    pairs = []
    columns = []
    for g in bk.divisors(f):
        sub = bk.divide(f, g)
        fibers = fiber_map(bk, g, f) if bk.norm(g) > 1 else None
        for xi in xi0_here:
            if not xi_in_level(bk, xi, sub):
                continue
            if fibers is None:
                col = {af.index[xi]: 1}
            else:
                col = {}
                for eta in fibers[xi]:
                    col[af.index[eta]] = col.get(af.index[eta], 0) + 1
            pairs.append((g, xi))
            columns.append(col)
    if len(columns) != af.rank:
        raise BasisCertificateFailed(
            f"monomial family has {len(columns)} members for rank {af.rank}"
        )
    # the columns serve as the rows of the transpose, which has the same
    # invariants
    lattice_inv = _invariants(columns, len(columns), af.rank)

    rel = distribution_relations(af)
    k = len(xi0_here)
    inside = {af.index[xi] for xi in xi0_here}
    outside = af.rank - k
    quotient = cokernel_invariants(rel)
    reach = _invariants(
        [{i: v for i, v in col.items() if i not in inside} for col in rel.entries],
        rel.cols,
        outside,
    )
    free = quotient == AbGroupInvariants(k)
    is_basis = free and len(reach) == outside and all(d == 1 for d in reach)
    if is_basis:
        quotient_inv = (1,) * k
    else:
        # only to say how it failed: the invariant factors of the images of
        # Xi_0 in the free part Z^n / sat(im R), where sat(im R) is the
        # lattice killed by every row that kills im R; what the images miss
        # of the free part has their nonunit invariants
        sat = kernel_basis(kernel_basis(rel.dense().transpose()).transpose())
        missed = cokernel_invariants(sat.hstack(class_matrix(xi0_here, af.index).dense()))
        rank = quotient.free_rank - missed.free_rank
        quotient_inv = ((1,) * (rank - len(missed.torsion)) + missed.torsion
                        + (0,) * (min(quotient.free_rank, k) - rank))
    ok = is_basis and all(d == 1 for d in lattice_inv)
    if not ok:
        note = "" if free else f"; U(f) is {quotient}, not Z^{k}"
        raise BasisCertificateFailed(
            f"certificates: lattice {lattice_inv}, quotient {quotient_inv}{note}"
        )
    return Xi0Basis(tuple(xi0_here), tuple(pairs), lattice_inv, quotient_inv, ok)


# ---------------------------------------------------------------------------
# The fiber identity (kernel transversal form)


@dataclass(frozen=True)
class FiberIdentityReport:
    lhs: dict
    rhs: dict
    equal: bool
    multiplicity: int


def lemma411_check(bk, p, f, xi: XiClass) -> FiberIdentityReport:
    """Both sides of the fiber identity for a class of exact order f.

    Left side: the full Y_p fiber over Y_p(xi) at level f.  Right side: the
    kernel ker(G_f -> G_{f/p}) applied to xi, plus, when p divides f exactly
    once, the extra term phi^{-1} Y_p xi with phi the class of p at level
    f/p^n.
    """
    if xi.order != f:
        raise OrderMismatch("class must have exact order f")
    if not bk.divides(p, f):
        raise OrderMismatch("p must divide f")
    n = 0
    rest = f
    while bk.divides(p, rest):
        rest = bk.divide(rest, p)
        n += 1
    c = rest

    image = y_map(bk, p, xi)
    lhs: dict = {}
    for eta in arith.y_fiber(bk, p, image, f):
        lhs[eta] = lhs.get(eta, 0) + 1

    rhs: dict = {}
    part = level_partition(bk, f)
    for residue in sorted(part.kernels[p], key=bk.residue_key):
        sigma = GfElement(bk.key, f, residue)
        eta = g_action(bk, sigma, xi)
        rhs[eta] = rhs.get(eta, 0) + 1
    if n == 1:
        if bk.norm(c) == 1:
            extra = image
        else:
            phi = bk.residue_of(p, c)
            phi_inv = bk.residue_inverse(phi, c)
            extra = g_action(bk, GfElement(bk.key, c, phi_inv), image)
        rhs[extra] = rhs.get(extra, 0) + 1

    return FiberIdentityReport(lhs, rhs, lhs == rhs, n)


# ---------------------------------------------------------------------------
# Towers


@dataclass
class TowerLevel:
    exponent: int
    level: object
    u: UModule
    sign_invariants: tuple  # (even, odd) AbGroupInvariants


@dataclass
class TowerReport:
    levels: list
    transitions: list       # U(f^k) -> U(f^{k+1}) in the depth-zero bases
    stabilized: bool
    exception_flagged: bool
    squarefree: bool


def u_inclusion(u_small: UModule, u_big: UModule) -> IntMatrix:
    """U(f) -> U(g) on the depth-zero bases, induced by Xi(f) into Xi(g)."""
    incl = class_matrix(u_small.parent.basis, u_big.parent.index)
    return (u_big.projection * (incl * u_small.section)).dense()


def u_tower(bk, f, n_levels: int, nu: dict | None = None) -> TowerReport:
    """U(f), U(f^2), ..., with transition maps and sign-homology per level.

    Levels outside the rank theorem (archimedean f = 2 mod 4) are exempt
    from the stabilization expectation and flagged instead.
    """
    from .signh import tate_pair  # late import: signh builds on this module

    if n_levels < 1:
        raise ValueError("need at least one level")
    squarefree = all(e == 1 for _, e in bk.factor(f))
    exception = bk.outside_rank_theorem(f)
    levels = []
    for k in range(1, n_levels + 1):
        fk = bk.power(f, k)
        u = u_module(build_af(bk, fk, nu))
        even, odd = tate_pair(u.operators["gamma0"], bk.sign_order)
        levels.append(TowerLevel(k, fk, u, (even, odd)))
    transitions = [
        u_inclusion(small.u, big.u) for small, big in zip(levels, levels[1:])
    ]
    first = levels[0].sign_invariants
    stabilized = all(lv.sign_invariants == first for lv in levels)
    return TowerReport(levels, transitions, stabilized, exception, squarefree)
