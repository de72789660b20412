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
components; depth zero means no kernel component is trivial.  The depths of
all classes of one exact order are computed together, once per process
(``_LevelPartition.depths``); ``partition_tag`` gives the whole
decomposition of one class, with its checks.

A(f) is built from the level's residue table (``arith.level_table``): the
class [a/f] sits at the position of its residue a, and Y_p, a group
element and the sign are the maps a -> c a mod f, so every column is found
by residue arithmetic and a position lookup, with no class objects.
Every operator on A(f) is a ``chainkit.MapOperator``: X_p is the fiber sum
of the position map of Y_p, completed by nu_p off its image Xi(f/p), which
is checked; a group element or the sign permutes the positions by its
unit, pi, and is given as Op(pi^-1), which is pi.
``chainkit.ActionModule`` certifies on those maps that all operators
commute and that gamma0 has finite order, and keeps each operator only as
its map: an operator's ``znf.SparseMatrix``, with about one nonzero per
class, is built from the map where it is read.  The relation matrix, the
section and the projection are sparse too, and their indices all come
from the table, so they skip the validating constructor.  Building them,
those certificates, and certifying that the relations are the columns of
the nu_p - X_p, so that every commuting operator preserves them and
induces an operator on U(f), all cost O(nnz), not |Xi(f)|^2, and multiply
no matrices.  The relation certificate runs once per ``UModule``, when it
is built.  No operator is induced then: any commuting operator of A(f)
induces P op S on U(f) through ``induce_preserving``, and ``signh``
induces only the sign's orbit norm, and 1 - gamma0 when the sign order is
above 2, that way.

``u_module`` certifies that basis with one triangular peel of the relation
matrix (``znf.complement_projection``): every class outside Xi_0(f) gets a
±1 pivot in a triangular order and every other relation is a combination
of the pivot ones, so A(f) is the direct sum of the span of Xi_0(f) and the
relation lattice, and the peel yields the projection onto U(f).
``xi0_basis`` keeps an independent check through the invariant factors of
the relations, taken sparsely: U(f) is free of rank |Xi_0(f)|, and the
relations reach every class outside Xi_0(f).  ``u_module`` and
``xi0_basis`` return only what can vary: a certificate that fails raises,
so neither value carries invariant factors that always read 1, and
``xi0_basis`` returns only the basis classes.  ``u_tower`` reports the
sign-homology of each level and keeps neither the levels' modules nor
transition maps; functoriality along a tower is checked in the tests.

The fiber identity behind U(f) = U'(f) (Lemma 4.1.1) is checked on the same
table: ``lemma411_counts`` compares, for every prime p | f and every class of
exact order f, the positions of its Y_p fiber with those of its kernel
translates and the extra term, as sorted tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arith import (
    GfElement,
    GfGroup,
    LevelTable,
    XiClass,
    gf_group,
    level_table,
    sign_group,
    xi_classes,
)
from .chainkit import ActionModule, MapOperator
from .znf import (
    AbGroupInvariants,
    FreeQuotient,
    NotAComplement,
    SparseMatrix,
    _invariants,
    _sparse,
    cokernel_invariants,
    complement_projection,
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
    """A(f) with its operator package, on the positions of ``table``."""

    backend: object
    level: object
    nu: dict
    table: LevelTable
    primes: tuple
    fibers: dict            # p -> {position in Xi(f/p): positions of its Y_p fiber}
    operators: ActionModule
    group: GfGroup

    @property
    def basis(self) -> tuple:
        return self.table.classes

    @property
    def index(self) -> dict:
        return self.table.index

    @property
    def rank(self) -> int:
        return len(self.table.classes)


def position_matrix(rows: int, positions) -> SparseMatrix:
    """Column j is the basis vector at ``positions[j]``, each in range(rows)."""
    return _sparse(rows, tuple({i: 1} for i in positions))


def build_af(bk, f, nu: dict | None = None) -> AfModule:
    """Assemble A(f): basis Xi(f), fiber-sum operators, group generators, sign.

    Every column comes from the level's table, so the matrices skip the
    validating constructor."""
    nu = dict(nu or {})
    table = level_table(bk, f)
    rank = len(table.classes)
    primes = tuple(p for p, _ in bk.factor(f))
    fibers = {p: table.fibers(p) for p in primes}
    _check_fiber_sums(table, fibers)

    ops = {}
    for p in primes:
        images = table.y_images(p)
        _check_image(table, p, images)
        ops[x_op_name(bk, p)] = MapOperator(images, nu.get(p, 1))

    group = gf_group(bk, f)
    for gen in group.generators():
        ops[g_op_name(bk, gen.residue)] = _permutation(table, gen.residue)
    ops["gamma0"] = _permutation(table, sign_group(bk, f).gamma.residue)

    module = ActionModule(rank, ops, {x_op_name(bk, p): nu.get(p, 1) for p in primes})
    return AfModule(bk, f, nu, table, primes, fibers, module, group)


def _permutation(table: LevelTable, unit) -> MapOperator:
    """The permutation of the classes by ``unit``, pi: [a/f] -> [unit a/f],
    as Op(pi^-1)."""
    inverse = list(table.positions)
    for i, j in zip(table.positions, table.images(unit)):
        inverse[j] = i
    return MapOperator(tuple(inverse))


def _check_image(table: LevelTable, p, images):
    # X_p is completed by nu_p exactly off Xi(f/p): the image of Y_p
    if set(images) != set(table.inside(p)):
        raise StructureCheckFailed(
            f"Y_{table.backend.format_ideal(p)} does not map Xi(f) onto Xi(f/p)"
        )


def _check_fiber_sums(table: LevelTable, fibers: dict):
    # X_p xi must be the full Y_p fiber sum wherever that fiber stays at level f
    for p, by_position in fibers.items():
        want = table.backend.norm(p)
        for i in table.inside(p):
            size = len(by_position.get(i, ()))
            if size != want:
                raise StructureCheckFailed(
                    f"fiber over {table.classes[i]} has {size} elements, expected {want}"
                )


def distribution_relations(af: AfModule) -> SparseMatrix:
    """Columns nu_p xi - sum(fiber) for each maximal p | f and xi in Xi(f/p)."""
    cols = []
    for p in af.primes:
        nu_p = af.nu.get(p, 1)
        fibers = af.fibers[p]
        for i in af.table.inside(p):
            col = dict.fromkeys(fibers[i], -1)
            col[i] = col.get(i, 0) + nu_p
            if not col[i]:
                del col[i]
            cols.append(col)
    return _sparse(af.rank, tuple(cols))


@dataclass(frozen=True)
class UModule(FreeQuotient):
    """U(f), the free quotient of A(f) by the distribution relations, kept
    on the depth-zero classes: ``section`` is |Xi(f)| x rank with the basis
    classes as columns, ``projection`` rank x |Xi(f)|.  It keeps no
    operator: one of A(f)'s is induced by ``induce_preserving`` where it
    is read.

    Building a UModule, directly or by ``dataclasses.replace``, certifies
    that its relations are the nonzero columns of the nu_p - X_p of its
    parent (``_certify_relations``), or raises StructureCheckFailed."""

    parent: AfModule
    basis_classes: tuple

    def __post_init__(self):
        _certify_relations(self.parent, self.relations)

    @property
    def rank(self) -> int:
        return self.section.cols

    def reduce_vector(self, vector) -> tuple:
        """The coordinates on U(f) of a vector of A(f), from the sparse
        projection columns."""
        column = SparseMatrix(len(vector), [dict(enumerate(vector))])
        return (self.projection * column).column(0)


def u_module(af: AfModule) -> UModule:
    """U(f) on the depth-zero basis.

    The depth-zero basis theorem says that Xi_0(f) spans a complement of the
    distribution relation lattice in A(f).  One triangular peel of the
    sparse relations (``complement_projection``) certifies exactly that and
    returns the projection along the relations, so U(f) = Z^{|G_f|} follows
    with no Smith reduction.  Only when the certificate fails is the
    cokernel computed, to tell a wrong structure (StructureCheckFailed) from
    a basis the peel could not certify (BasisCertificateFailed).

    Building the UModule certifies, in O(nnz), that the relations are the
    nonzero columns of the nu_p - X_p; a mismatch raises
    StructureCheckFailed.  No operator is induced here.
    """
    rel = distribution_relations(af)
    expected_rank = len(af.group)
    xi0 = _depth_zero_positions(af)
    try:
        projection = complement_projection(rel, xi0)
    except NotAComplement:
        projection = None
    if projection is None or len(xi0) != expected_rank:
        _diagnose(af, rel, len(xi0), expected_rank)
    section = position_matrix(af.rank, xi0)
    return UModule(relations=rel, projection=projection, section=section, parent=af,
                   basis_classes=tuple(af.basis[i] for i in xi0))


def _certify_relations(af: AfModule, rel: SparseMatrix):
    """Check that the nonzero columns of ``rel`` are those of the nu_p - X_p,
    over ``af.primes`` and then the basis, in that order; O(nnz).  Each
    nu_p - X_p is read off X_p's map, with no matrix of X_p built.

    Then im(rel) = sum_p im(nu_p - X_p).  ``ActionModule`` has certified
    that every operator of A(f) commutes with each X_p, so each maps every
    im(nu_p - X_p), and with them im(rel), into itself: the relations are
    preserved with no product against the projection.
    """
    positions = af.table.positions
    expected = []
    for p in af.primes:
        x = af.operators.maps[x_op_name(af.backend, p)]
        diff = MapOperator(x.images, x.nu, shift=af.nu.get(p, 1), scale=-1)
        expected += [col for col in diff.columns(positions, positions) if col]
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
        self.one = self.group.identity.residue
        self.transversal = self._build_transversal()

    @cached_property
    def kernels(self) -> dict:
        """ker(G_f -> G_{f/p}) for each maximal p | f, as unit residues;
        only ``decompose`` and the fiber identity read them."""
        bk, f = self.backend, self.level
        return {
            p: frozenset(
                e.residue
                for e in self.group
                if self._is_one_mod(e.residue, bk.divide(f, p))
            )
            for p in self.primes
        }

    @cached_property
    def depths(self) -> dict:
        """The depth of each class of exact order f, keyed by its numerator
        (a unit mod f), in ``xi_classes`` order.

        With x = num * lift^{-1} for num's transversal lift, the CRT
        component of x at p is trivial exactly when x = 1 mod p^e, that is
        when num = lift mod p^e, so the depth counts the p^e at which num
        and its lift agree.  Reducing all the units mod the base and mod
        each p^e is one map of residue keys each (``mul_keys`` by 1), and
        the lifts are reduced once.  ``decompose`` takes the steps of the
        definition one class at a time, with its checks.
        """
        bk = self.backend
        keys = bk.unit_keys(self.level)
        bases = bk.mul_keys(bk.one, self.base, keys)
        agree = [0] * len(keys)
        for pe in self.prime_powers.values():
            lifts = {bk.residue_key(b): bk.residue_key(bk.residue_of(lift, pe))
                     for b, lift in self.transversal.items()}
            agree = [n + (lifts[b] == k)
                     for n, b, k in zip(agree, bases, bk.mul_keys(bk.one, pe, keys))]
        return dict(zip((e.residue for e in self.group), agree))

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
    """The depth of ``partition_tag(bk, xi)``, read from its order's table."""
    if bk.norm(xi.order) == 1:
        return 0
    return level_partition(bk, xi.order).depths[xi.num]


def level_depths(bk, f) -> tuple:
    """The depth of every class of Xi(f), in ``xi_classes`` order.

    Xi(f) lists its classes by order d, the divisors of f in key order,
    and within an order by numerator; those numerators are the units mod d
    in the order in which ``level_partition(d).depths`` lists them.
    """
    out = []
    for d in bk.divisors(f):
        out.extend(level_partition(bk, d).depths.values() if bk.norm(d) > 1 else (0,))
    return tuple(out)


def _depth_zero_positions(af: AfModule) -> list:
    return [i for i, d in enumerate(level_depths(af.backend, af.level)) if d == 0]


def xi0_set(bk, f) -> list[XiClass]:
    """Depth-zero classes at level f; cardinality |G_f| by the counting lemma."""
    classes = xi_classes(bk, f)
    return [classes[i] for i, d in enumerate(level_depths(bk, f)) if d == 0]


@dataclass(frozen=True)
class Xi0Basis:
    """The certified bases; ``xi0_basis`` raises unless both certificates
    hold, so every invariant factor behind a returned value is 1."""

    classes: tuple                 # Xi_0 at the module level


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
    peel ``u_module`` uses.  A failure is explained by one more sparse
    reduction, of the relations beside the coordinate vectors of Xi_0(f),
    whose cokernel is U(f)/<Xi_0>.
    """
    bk = af.backend
    table = af.table
    # a class has the same depth at every level that contains it
    xi0_here = _depth_zero_positions(af)
    columns = []
    for g in bk.divisors(af.level):
        fibers = table.fibers(g)
        in_sub = set(table.inside(g))
        columns.extend(dict.fromkeys(fibers[i], 1) for i in xi0_here if i in in_sub)
    if len(columns) != af.rank:
        raise BasisCertificateFailed(
            f"monomial family has {len(columns)} members for rank {af.rank}"
        )
    # the columns serve as the rows of the transpose, which has the same
    # invariants
    lattice_inv = _invariants(columns, len(columns), af.rank)

    rel = distribution_relations(af)
    k = len(xi0_here)
    inside = set(xi0_here)
    outside = af.rank - k
    quotient = cokernel_invariants(rel)
    reach = _invariants(
        [{i: v for i, v in col.items() if i not in inside} for col in rel.entries],
        rel.cols,
        outside,
    )
    free = quotient == AbGroupInvariants(k)
    is_basis = free and len(reach) == outside and all(d == 1 for d in reach)
    if is_basis and all(d == 1 for d in lattice_inv):
        return Xi0Basis(tuple(af.basis[i] for i in xi0_here))
    if is_basis:
        found = f"quotient {_factor_summary((1,) * k)}"
    else:
        # only to say how it failed, with one more sparse reduction: what
        # the images of Xi_0 miss of U(f) is U(f)/<Xi_0> = Z^n / (im R +
        # span e_Xi0).  When U(f) = Z^k its nonunit invariant factors are
        # those of the images
        missed = cokernel_invariants(
            _sparse(af.rank, rel.entries + position_matrix(af.rank, xi0_here).entries))
        if free:
            units = k - missed.free_rank - len(missed.torsion)
            factors = (1,) * units + missed.torsion + (0,) * missed.free_rank
            found = f"quotient {_factor_summary(factors)}"
        else:
            found = f"U(f)/<Xi_0> is {missed}; U(f) is {quotient}, not Z^{k}"
    lattice = _factor_summary(lattice_inv)
    raise BasisCertificateFailed(f"certificates: lattice {lattice}, {found}")


def _factor_summary(factors: tuple) -> str:
    """Invariant factors as the count of units and the tuple of the others,
    so a failure message stays one short line at any rank."""
    rest = tuple(d for d in factors if d != 1)
    units = len(factors) - len(rest)
    return f"{units} unit{'' if units == 1 else 's'}" + (f" and {rest}" if rest else "")


# ---------------------------------------------------------------------------
# The fiber identity (kernel transversal form), by position


def lemma411_counts(bk, f) -> tuple[int, int]:
    """(checked, failures) of the fiber identity over every prime p | f and
    every class of exact order f, on the positions of ``level_table(bk, f)``.

    For p^n exactly dividing f and the class [a/f], the left side is the
    full Y_p fiber over [p a/f].  The right side is the kernel
    ker(G_f -> G_{f/p}) applied to [a/f], that is the positions of sigma a
    for its residues sigma, plus, when n = 1, the extra term
    phi^{-1} Y_p [a/f] = [p (phi^{-1} a mod c)/f] with c = f/p and phi the
    class of p mod c ([p a/f] itself when c is the unit ideal).  The two
    are compared as sorted tuples of positions, with no class objects; Y_p
    is read off the fibers, so each prime costs one pass over the table.
    """
    table = level_table(bk, f)
    position, residues = table.position, table.residues
    exact = [i for i, xi in enumerate(table.classes) if xi.order == f]
    kernels = level_partition(bk, f).kernels
    checked = failures = 0
    for p, n in bk.factor(f):
        fibers = table.fibers(p)
        ypos = {j: i for i, js in fibers.items() for j in js}
        kernel = kernels[p]
        c = bk.divide(f, p)
        extra = n == 1 and bk.norm(c) > 1
        if extra:
            phi_inv = bk.residue_inverse(bk.residue_of(p, c), c)
        for i in exact:
            a = residues[i]
            rhs = [position[bk.residue_mul(sigma, a, f)] for sigma in kernel]
            if extra:
                rhs.append(position[bk.residue_mul(p, bk.residue_mul(phi_inv, a, c), f)])
            elif n == 1:
                rhs.append(ypos[i])
            checked += 1
            failures += fibers[ypos[i]] != tuple(sorted(rhs))
    return checked, failures


# ---------------------------------------------------------------------------
# Towers


@dataclass
class TowerLevel:
    exponent: int
    level: object
    sign_invariants: tuple  # (even, odd) AbGroupInvariants


@dataclass
class TowerReport:
    levels: list
    stabilized: bool
    exception_flagged: bool
    squarefree: bool


def u_tower(bk, f, n_levels: int, nu: dict | None = None) -> TowerReport:
    """U(f), U(f^2), ..., with the sign-homology of each level.

    Levels outside the rank theorem (archimedean f = 2 mod 4) are exempt
    from the stabilization expectation and flagged instead.
    """
    from .signh import sign_homology_U  # late import: signh builds on this module

    if n_levels < 1:
        raise ValueError("need at least one level")
    squarefree = all(e == 1 for _, e in bk.factor(f))
    exception = bk.outside_rank_theorem(f)
    levels = []
    for k in range(1, n_levels + 1):
        table = sign_homology_U(bk, f, nu, level=k)
        levels.append(TowerLevel(k, bk.power(f, k), (table[0], table[1])))
    first = levels[0].sign_invariants
    stabilized = all(lv.sign_invariants == first for lv in levels)
    return TowerReport(levels, stabilized, exception, squarefree)
