"""Arithmetic backends and the torsion-class combinatorics built on them.

Two backends are supported, both with narrow class number one:

* archimedean: ring Z inside R, positive = positive, two roots of unity;
* function field: F_q[T] inside F_q((1/T)), positive = monic, q - 1 roots
  of unity (F_q is table-driven, so prime powers work).

Because every homothety class of lattices is trivial here, a homothety class
of f-torsion lattice translates is just an element of f^{-1}A/A, stored in
lowest terms as (order, numerator); the ray-class group at level f is
(A/f)^x acting by numerator multiplication; and the sign generator acts by
the inverse of a fixed generator of the roots of unity.

Everything that differs between the two backends is a method or attribute
of the backend classes; the code outside them never asks which backend it
has.  Besides ring arithmetic (``mul``, ``divide``, ``gcd``, ``factor``,
residues mod an ideal, ``norm``) and the sign data (``sign_order``,
``sign_scalar``, ``scalar_mul``), the interface carries:

* ``residues(f)``: every residue mod f in key order, so that the residue
  key of a (``residue_key``) is its index there;
* ``units(e)`` and ``unit_keys(e)``: the units mod e in key order, and
  their keys, by a sieve that strikes the multiples of each prime of e;
* ``mul_keys(c, f, keys)``: the multiplication map a -> c a mod f on
  residue keys.  Over Z a key is the residue.  Over F_q[T] a key's base-p
  digits are the residue's F_p coordinates, so the map is F_p-linear and
  is filled from its images of the keys p^t (``_linear_fill``), with one
  ``residue_mul`` per digit and none per residue;
* ``reduce_fraction(a, f)``: the (order, numerator) of [a/f] in lowest terms;
* ``least_unit_lift(x, base, f)``: the least unit mod f reducing to x mod
  base;
* ``crt_lift(x, m, n)``: the t mod mn with t = x mod m and t = 1 mod n;
* ``outside_rank_theorem(f)``: Kubert's exception, f = 2 mod 4 over Z and
  never over F_q[T];
* ``comparison_nu_ok(values)``: whether nu values meet the hypothesis of the
  comparison theorem (units over Z, anything over F_q[T]).

``kind`` is a label for reports and ``backend()``; nothing branches on it.

Each level has one cached ``LevelTable``: the sorted class list Xi(f), the
residue a mod f of each class [a/f] and the position of each residue, built
by divisor blocks from ``units`` and ``mul_keys``.  Numerator
multiplication by c in A is the map a -> c a mod f on residues, so the Y_g
fibers, the group elements and the sign act on positions through
``mul_keys``, and ``distmod`` builds A(f) from these integer tables with no
class objects.
``xi_classes`` reads the table, and ``fiber_map`` is the class view of its
position fibers.  Class lists and fibers are tuples; the fiber dicts, the
tables and the level groups are only read by their callers.  Each backend
caches its factorisations, as tuples of (prime, exponent).

Polynomials over F_q are tuples of field codes.  Their kernels (``poly_add``,
``poly_mul``, ``poly_divmod``) index the tables of ``FqTable`` directly,
with no memo.  ``fq_table`` refuses q > ``FQ_MAX`` = 4096 before it builds
any q x q table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, count
from math import gcd


class NotDivisible(ValueError):
    pass


class LevelMismatch(ValueError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# F_q arithmetic tables


def _prime_power(q: int):
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            n = q
            while n % p == 0:
                n //= p
                d += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, d
    raise ValueError(f"{q} is not a prime power")


def _poly_mod_p(coeffs, p):
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod_p(a, b, p):
    a = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        q = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        a = _poly_mod_p(a, p)
        if not a:
            break
    return out, a


def _least_irreducible(p: int, d: int):
    """Monic irreducible of degree d over F_p with the smallest digit code."""
    for code in range(p**d):
        coeffs = [(code // p**i) % p for i in range(d)] + [1]
        if _is_irreducible_p(coeffs, p):
            return coeffs
    raise RuntimeError("no irreducible found")


def _is_irreducible_p(coeffs, p):
    """Whether no monic polynomial of degree 1 .. d/2 divides coeffs."""
    return all(
        _poly_divmod_p(coeffs, [(code // p**i) % p for i in range(k)] + [1], p)[1]
        for k in range(1, (len(coeffs) - 1) // 2 + 1) for code in range(p**k)
    )


class FqTable:
    """The field with q elements, elements encoded as integers 0..q-1.

    For q = p^d with d > 1 the code is the base-p digit vector of the
    residue modulo the lexicographically least monic irreducible of degree d.
    """

    def __init__(self, q: int):
        self.q = q
        self.p, self.deg = _prime_power(q)
        p, d = self.p, self.deg
        if d == 1:
            self.modulus = None
        else:
            self.modulus = _least_irreducible(p, d)
        self.add_table = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        self.mul_table = [[self._mul_raw(a, b) for b in range(q)] for a in range(q)]
        self.neg_table = [row.index(0) for row in self.add_table]
        self.inv_table = [None] + [row.index(1) for row in self.mul_table[1:]]
        self.generator = self._least_generator()
        # each base-p digit of a code in a field of ``bits`` bits, wide enough
        # for the sum of two digits below 2^(bits-1): see ``_linear_fill``
        self.bits = (2 * p - 2).bit_length() + 1
        self.spread = [
            sum(x << (j * self.bits) for j, x in enumerate(self._digits(c))) for c in range(q)
        ]

    def _digits(self, code):
        return [(code // self.p**i) % self.p for i in range(self.deg)]

    def _code(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _add_raw(self, a, b):
        return self._code([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def _mul_raw(self, a, b):
        if self.deg == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        _, rem = _poly_divmod_p(_poly_mod_p(prod, self.p), self.modulus, self.p)
        rem = rem + [0] * (self.deg - len(rem))
        return self._code(rem)

    def _least_generator(self):
        target = self.q - 1
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x = self.mul_table[x][g]
                order += 1
            if order == target:
                return g
        return 1  # q = 2

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.inv_table[a]


# The largest field size uod accepts.  FqTable builds q x q tables before any
# other work (about 1.2 GB and 47 s at q = 4001 on a 2-core x86 host), so a
# larger q is refused up front rather than left to starve.
FQ_MAX = 4096


@lru_cache(maxsize=None)
def fq_table(q: int) -> FqTable:
    if q > FQ_MAX:
        raise ValueError(f"q = {q} is too large: F_q tables are built for q <= {FQ_MAX} only")
    return FqTable(q)


# ---------------------------------------------------------------------------
# Polynomials over F_q: tuples of codes, low degree first, no trailing zeros


def poly_trim(coeffs):
    return _trimmed(list(coeffs))


def _trimmed(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_deg(a):
    return len(a) - 1  # deg(0) = -1


# The kernels index the F_q tables directly: a method call per coefficient
# step cost more than the arithmetic it wrapped.  Each trims once, at the end.


def poly_add(fq, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = fq.add_table
    return _trimmed([add[x][y] for x, y in zip(a, b)] + list(a[len(b):]))


def poly_neg(fq, a):
    neg = fq.neg_table
    return tuple(neg[x] for x in a)


def poly_sub(fq, a, b):
    return poly_add(fq, a, poly_neg(fq, b))


def poly_mul(fq, a, b):
    if not a or not b:
        return ()
    add, mul = fq.add_table, fq.mul_table
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add[out[j]][row[y]]
    return _trimmed(out)


def poly_scale(fq, c, a):
    row = fq.mul_table[c]
    return _trimmed([row[x] for x in a])


def poly_inverse_mod(fq, a, f):
    """The inverse of the residue a mod f; () when f is a unit."""
    if poly_deg(f) < 1:
        return ()
    # extended Euclid over F_q[T]
    r0, r1 = f, a
    s0, s1 = (), (1,)
    while r1:
        qp, rem = poly_divmod(fq, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(fq, s0, poly_mul(fq, qp, s1))
    if poly_deg(r0) != 0:
        raise ZeroDivisionError("residue not invertible")
    return poly_divmod(fq, poly_scale(fq, fq.inv(r0[0]), s0), f)[1]


# Divisions are not memoised.  The class table, the group maps and the
# depths take one residue product per basis vector of a linear map, not one
# per residue, so ``verify yin --q 5 --f T^3+T`` makes 216 divisions (79
# distinct) and ``--f T^5+T`` 338 (116 distinct), and none of nine
# function-field commands, the largest in the CI smoke among them, ran
# faster with a memo of 2^14.
def poly_divmod(fq, a, b):
    """(quotient, remainder) of a by b; a and b are tuples."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    top = len(b) - 1
    if len(a) <= top:
        return (), a
    add, mul, neg = fq.add_table, fq.mul_table, fq.neg_table
    lead_inv = mul[fq.inv_table[b[-1]]]
    # subtracting q T^shift b adds q times the negated terms of b below its lead
    low = [(i, neg[c]) for i, c in enumerate(b[:top]) if c]
    r = list(a)
    out = [0] * (len(a) - top)
    for shift in range(len(out) - 1, -1, -1):
        c = r[shift + top]
        if c:
            out[shift] = q = lead_inv[c]
            row = mul[q]
            for i, y in low:
                i += shift
                r[i] = add[r[i]][row[y]]
    del r[top:]
    return _trimmed(out), _trimmed(r)


def poly_monic(fq, a):
    if not a:
        return a
    return poly_scale(fq, fq.inv(a[-1]), a)


# A residue's key is the integer with its F_p coordinates as base-p digits,
# since field codes are base-p digit vectors.  Its spread code holds the same
# digits one ``fq.bits``-bit field each, so that adding two spread codes adds
# all their coordinates at once.


@lru_cache(maxsize=None)
def _residue_space(fq, n):
    """The residues of degree < n in key order, their spread codes, and the
    key of each spread code.  The space of degree n is that of n - 1 with
    each nonzero coefficient of T^(n-1) put on top."""
    if n == 0:
        return [()], [0], {0: 0}
    low, low_spreads, _ = _residue_space(fq, n - 1)
    shift = (n - 1) * fq.deg * fq.bits
    padded = [a + (0,) * (n - 1 - len(a)) for a in low]
    polys = low + [a + (c,) for c in range(1, fq.q) for a in padded]
    spreads = low_spreads + [
        s + (fq.spread[c] << shift) for c in range(1, fq.q) for s in low_spreads
    ]
    return polys, spreads, dict(zip(spreads, range(len(spreads))))


def _linear_fill(fq, images, fields) -> list:
    """Spread codes of the F_p-linear map that sends the code p^t to the
    spread code ``images[t]``, on every code below p^len(images) in order:
    the image of d p^t + r is that of r plus d times ``images[t]``.

    The sum of two spread codes has each field at most 2p - 2, below
    2^(bits-1), so adding 2^(bits-1) - p to every field (of ``fields``) sets
    a field's top bit exactly when it reached p, and p is taken off those
    fields."""
    p, top = fq.p, fq.bits - 1
    high = sum(1 << (i * fq.bits + top) for i in range(fields))
    lift = (high >> top) * ((1 << top) - p)
    out = [0]
    for image in images:
        base, step = out[:], 0
        for _ in range(p - 1):
            s = step + image
            step = s - (((s + lift) & high) >> top) * p
            out += [x - (((x + lift) & high) >> top) * p for x in map(step.__add__, base)]
    return out


# ---------------------------------------------------------------------------
# Backends


class ArchimedeanBackend:
    """Basic data (R, Z, x -> x/|x|): ideals are positive integers.

    Residues are ints in range(f).  Besides the ring and residue arithmetic
    it carries the backend interface listed in the module docstring:
    ``reduce_fraction``, ``least_unit_lift``, ``crt_lift``,
    ``outside_rank_theorem`` and ``comparison_nu_ok``.
    """

    kind = "archimedean"
    q = None

    def __init__(self):
        self._factor_cache = {}

    @property
    def key(self):
        return ("archimedean",)

    one = 1
    sign_order = 2
    sign_label = "-1"

    def norm(self, f: int) -> int:
        return f

    def residues(self, f: int):
        """Every residue mod f, in key order: the key of a is a."""
        return range(f)

    def unit_keys(self, e: int) -> list:
        """The units mod e, ascending, by a sieve that strikes the multiples
        of each prime dividing e."""
        flags = bytearray([1]) * e
        for p, _ in self.factor(e):
            flags[::p] = bytes(len(range(0, e, p)))
        return list(compress(range(e), flags))

    units = unit_keys  # a residue is its own key

    def mul_keys(self, c, f, keys) -> list:
        """The key of c a mod f for the residue a of each key."""
        return [(c * a) % f for a in keys]

    def residue_of(self, a: int, f: int) -> int:
        return a % f

    def residue_mul(self, a, b, f):
        return (a * b) % f

    def residue_key(self, a):
        return a

    def coprime(self, a, f) -> bool:
        return gcd(a, f) == 1

    def residue_inverse(self, a, f):
        return pow(a, -1, f) if f > 1 else 0

    def mul(self, f, g):
        return f * g

    def power(self, f, n):
        return f**n

    def divide(self, f, g):
        if f % g:
            raise NotDivisible(f"{g} does not divide {f}")
        return f // g

    def divides(self, g, f) -> bool:
        return f % g == 0

    def gcd(self, f, g):
        return gcd(f, g)

    def factor(self, f):
        if f in self._factor_cache:
            return self._factor_cache[f]
        out = []
        n = f
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
            p += 1
        if n > 1:
            out.append((n, 1))
        out = self._factor_cache[f] = tuple(out)
        return out

    def radical(self, f):
        r = 1
        for p, _ in self.factor(f):
            r *= p
        return r

    def divisors(self, f):
        divs = [1]
        for p, e in self.factor(f):
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def ideal_key(self, f):
        return f

    def format_ideal(self, f) -> str:
        return str(f)

    def parse_ideal(self, text: str):
        try:
            f = int(text.strip())
        except ValueError as exc:
            raise ParseError(f"not an integer ideal: {text!r}") from exc
        if f < 1:
            raise ParseError("integer ideals are positive")
        return f

    def format_residue(self, a) -> str:
        return str(a)

    @property
    def sign_scalar(self):
        """Numerator multiplier of the sign generator: (sgn gamma_0)^{-1}."""
        return -1

    def scalar_mul(self, scalar, a, f):
        return (scalar * a) % f if f > 1 else 0

    def reduce_fraction(self, a, f):
        """(order, numerator) of [a/f] in lowest terms, for a residue a mod f."""
        if f == 1:
            return 1, 0
        d = gcd(a, f)
        order = f // d
        return order, (a // d) % order if order > 1 else 0

    def least_unit_lift(self, x, base, f):
        """Least residue mod f that is prime to f and is x mod base (base | f)."""
        t = x
        while True:
            if t and self.coprime(t, f):
                return t % f
            t += base

    def crt_lift(self, x, m, n):
        """The residue t mod mn with t = x mod m and t = 1 mod n (m, n coprime)."""
        inv = pow(n % m, -1, m) if m > 1 else 0
        return (1 + n * (((x - 1) * inv) % m)) % (m * n)

    def outside_rank_theorem(self, f) -> bool:
        """Kubert's exception: the rank theorem excludes f = 2 mod 4."""
        return f % 4 == 2

    def comparison_nu_ok(self, values) -> bool:
        """The comparison theorem needs every nu value to be a unit."""
        return all(v in (1, -1) for v in values)


# The archimedean backend: ``backend("q")`` returns it too, so the CLI and the
# integer-only code (u-function, symbol complex) factor through one cache.
ARCHIMEDEAN = ArchimedeanBackend()


class FunctionFieldBackend:
    """Basic data (F_q((1/T)), F_q[T], leading coefficient).

    Residues are polynomials over F_q as tuples of codes, low degree first.
    It carries the same interface as ``ArchimedeanBackend``; Kubert's
    exception never applies and every nu value meets the comparison theorem.
    """

    kind = "function_field"

    def __init__(self, q: int):
        self.q = q
        self.fq = fq_table(q)
        self.one = (1,)
        self.sign_order = q - 1
        self._factor_cache = {}

    @property
    def key(self):
        return ("function_field", self.q)

    @property
    def sign_label(self) -> str:
        return str(self.fq.generator)

    def norm(self, f) -> int:
        return self.q ** poly_deg(f)

    def residues(self, f):
        """Every residue mod f, in key order; a shared list, not to be
        changed."""
        return _residue_space(self.fq, poly_deg(f))[0]

    def unit_keys(self, e) -> list:
        """The keys of the units mod e, ascending, by a sieve: for each
        prime P | e, the multiples P b with deg b < deg e - deg P are struck
        by their spread codes, the map b -> P b filled by ``_mul_fill``."""
        n = poly_deg(e)
        spreads = _residue_space(self.fq, n)[1]
        struck = set()
        for prime, _ in self.factor(e):
            struck.update(self._mul_fill(prime, e, (n - poly_deg(prime)) * self.fq.deg))
        return [k for k, s in enumerate(spreads) if s not in struck]

    def units(self, e) -> list:
        """The units mod e in key order."""
        polys = self.residues(e)
        return [polys[k] for k in self.unit_keys(e)]

    def mul_keys(self, c, f, keys) -> list:
        """The key of c a mod f for the residue a of each key.

        a -> c a mod f is F_p-linear on keys' digits, so it is filled
        (``_linear_fill``) from the images of the codes p^t below the
        largest key, one ``residue_mul`` each, and read back through the
        spread-code index."""
        top = max(keys)
        images = self._mul_fill(c, f, next(t for t in count() if self.fq.p**t > top))
        key_of = _residue_space(self.fq, poly_deg(f))[2]
        return [key_of[images[k]] for k in keys]

    def _mul_fill(self, c, f, digits) -> list:
        """The spread codes of c a mod f for the residues a with keys below
        p^digits, filled from the images of the residues with keys p^t."""
        fq = self.fq
        width = fq.deg * fq.bits
        images = []
        for t in range(digits):
            image = self.residue_mul(c, (0,) * (t // fq.deg) + (fq.p ** (t % fq.deg),), f)
            images.append(sum(fq.spread[x] << (i * width) for i, x in enumerate(image)))
        return _linear_fill(fq, images, poly_deg(f) * fq.deg)

    def residue_of(self, a, f):
        return poly_divmod(self.fq, a, f)[1]

    def residue_mul(self, a, b, f):
        return self.residue_of(poly_mul(self.fq, a, b), f)

    def residue_key(self, a):
        return sum(c * self.q**i for i, c in enumerate(a))

    def coprime(self, a, f) -> bool:
        return self.gcd(a, f) == self.one

    def residue_inverse(self, a, f):
        return poly_inverse_mod(self.fq, a, f)

    def mul(self, f, g):
        return poly_mul(self.fq, f, g)

    def power(self, f, n):
        out = self.one
        for _ in range(n):
            out = poly_mul(self.fq, out, f)
        return out

    def divide(self, f, g):
        q, r = poly_divmod(self.fq, f, g)
        if r:
            raise NotDivisible(
                f"{self.format_ideal(g)} does not divide {self.format_ideal(f)}"
            )
        return q

    def divides(self, g, f) -> bool:
        return not poly_divmod(self.fq, f, g)[1]

    def gcd(self, a, b):
        while b:
            a, b = b, poly_divmod(self.fq, a, b)[1]
        return poly_monic(self.fq, a)

    def factor(self, f):
        """Monic irreducible factors with multiplicities, by trial division."""
        if f in self._factor_cache:
            return self._factor_cache[f]
        out = []
        rest = poly_monic(self.fq, f)
        while poly_deg(rest) >= 1:
            # the monic trials of degree k in key order, k = 1 .. deg/2
            trials = (a + (0,) * (k - len(a)) + (1,) for k in range(1, poly_deg(rest) // 2 + 1)
                      for a in _residue_space(self.fq, k)[0])
            found = next((t for t in trials if self.divides(t, rest)), rest)
            e = 0
            while self.divides(found, rest):
                rest = self.divide(rest, found)
                e += 1
            out.append((found, e))
        out.sort(key=lambda pe: self.ideal_key(pe[0]))
        out = self._factor_cache[f] = tuple(out)
        return out

    def radical(self, f):
        r = self.one
        for p, _ in self.factor(f):
            r = poly_mul(self.fq, r, p)
        return r

    def divisors(self, f):
        divs = [self.one]
        for p, e in self.factor(f):
            divs = [poly_mul(self.fq, d, self.power(p, i)) for d in divs for i in range(e + 1)]
        return sorted(divs, key=self.ideal_key)

    def ideal_key(self, f):
        return (poly_deg(f), self.residue_key(f))

    def format_ideal(self, f) -> str:
        return self.format_residue(f) if f else "0"

    def format_residue(self, a) -> str:
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                parts.append(self._coeff_str(c))
            else:
                tpow = "T" if i == 1 else f"T^{i}"
                parts.append(tpow if c == 1 else f"{self._coeff_str(c)}*{tpow}")
        return " + ".join(parts)

    def _coeff_str(self, c) -> str:
        if c < self.fq.p:
            return str(c)
        return f"[{c}]"  # extension-field element, shown by its code

    def parse_ideal(self, text: str):
        poly = parse_polynomial(text, self.q)
        if not poly:
            raise ParseError("the zero polynomial is not an ideal")
        if poly[-1] != 1:
            raise ParseError(f"ideals are monic; got {self.format_ideal(poly)}")
        return poly

    @property
    def sign_scalar(self):
        """Constant (sgn gamma_0)^{-1}; generates F_q^x."""
        return self.fq.inv(self.fq.generator) if self.q > 2 else 1

    def scalar_mul(self, scalar, a, f):
        return self.residue_of(poly_scale(self.fq, scalar, a), f)

    def reduce_fraction(self, a, f):
        """(order, numerator) of [a/f] in lowest terms, for a residue a mod f."""
        d = self.gcd(a if a else f, f)
        order = self.divide(f, d)
        if poly_deg(order) < 1:
            return self.one, ()
        return order, self.residue_of(self.divide(a, d) if a else (), order)

    def least_unit_lift(self, x, base, f):
        """Least residue mod f that is prime to f and is x mod base (base | f).

        None if there is none.  The residues that are x mod base are the
        x + base*k with deg k < deg f - deg base, one for each choice of the
        coefficients of degree >= deg base.  Those coefficients dominate the
        residue index, so stepping through them in index order tries the
        lifts in residue-index order, and the first coprime one is the least.
        """
        b = poly_deg(base)
        for h in _residue_space(self.fq, poly_deg(f) - b)[0]:
            high = (0,) * b + h if h else ()
            a = poly_add(self.fq, high, self.residue_of(poly_sub(self.fq, x, high), base))
            if self.coprime(a, f):
                return a
        return None

    def crt_lift(self, x, m, n):
        """The residue t mod mn with t = x mod m and t = 1 mod n (m, n coprime)."""
        inv = self.residue_inverse(self.residue_of(n, m), m)
        diff = self.residue_of(poly_sub(self.fq, x, self.one), m)
        t = poly_add(self.fq, self.one, poly_mul(self.fq, n, self.residue_mul(diff, inv, m)))
        return self.residue_of(t, self.mul(m, n))

    def outside_rank_theorem(self, f) -> bool:
        return False

    def comparison_nu_ok(self, values) -> bool:
        return True


def backend(kind: str, q: int | None = None):
    if kind in ("archimedean", "q"):
        return ARCHIMEDEAN
    if kind in ("function_field", "fq"):
        if q is None:
            raise ValueError("function field backend needs q")
        return FunctionFieldBackend(q)
    raise ValueError(f"unknown backend kind {kind!r}")


# ---------------------------------------------------------------------------
# Polynomial expression parser ("T^2+2*T+1", "T*(T+1)", ...)


def parse_polynomial(text: str, q: int):
    fq = fq_table(q)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of polynomial: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = poly_add(fq, node, rhs if op == "+" else poly_neg(fq, rhs))
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*" or peek() in ("T", "(") or isinstance(peek(), int):
            if peek() == "*":
                take()
            node = poly_mul(fq, node, parse_factor())
        return node

    def parse_factor():
        node = parse_atom()
        if peek() == "^":
            take()
            exp = take()
            if not isinstance(exp, int) or exp < 0:
                raise ParseError("exponent must be a nonnegative integer")
            out = (1,)
            for _ in range(exp):
                out = poly_mul(fq, out, node)
            return out
        return node

    def parse_atom():
        tok = take() if peek() is not None else None
        if tok == "(":
            node = parse_expr()
            if peek() != ")":
                raise ParseError("unbalanced parentheses")
            take()
            return node
        if tok == "T":
            return (0, 1)
        if tok == "-":
            return poly_neg(fq, parse_atom())
        if isinstance(tok, int):
            return poly_trim([tok % fq.p])
        raise ParseError(f"unexpected token {tok!r} in polynomial")

    result = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input in polynomial: {text!r}")
    return result


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch in ("T", "t"):
            tokens.append("T")
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        else:
            raise ParseError(f"bad character {ch!r} in polynomial")
    if not tokens:
        raise ParseError("empty polynomial")
    return tokens


# ---------------------------------------------------------------------------
# Torsion classes and groups


@dataclass(frozen=True)
class XiClass:
    """Homothety class of a torsion lattice translate, in lowest terms.

    Represents [num/order + A]; the numerator is a canonical residue modulo
    the order and is coprime to it (order one means the zero class).
    """

    backend_key: tuple
    order: object
    num: object

    def __repr__(self):
        return f"Xi({self.num}/{self.order})"


def xi_from_fraction(bk, a, f) -> XiClass:
    """Canonical class of [a/f + A]."""
    order, num = bk.reduce_fraction(bk.residue_of(a, f), f)
    return XiClass(bk.key, order, num)


# Per-level caches.  Their values are never mutated, and uod runs every
# command in a single thread, so check-then-set needs no lock; the same holds
# for the memos inside a ``LevelTable``, for ``distmod._partition_cache`` and
# for the backends' ``_factor_cache``.  These grow with the levels a process
# visits, as ``_residue_space`` grows with their degrees.
_table_cache: dict = {}
_group_cache: dict = {}


class LevelTable:
    """The classes of Xi(f) and their residues, built once per level.

    ``classes`` is Xi(f) in sorted order, ``residues[i]`` is the residue a
    mod f with [a/f] = ``classes[i]``, ``keys[i]`` is its residue key, and
    ``position`` maps each residue to its place.

    The table is built by divisor blocks: Xi(f) is the disjoint union over
    d | f of the classes [u/d] of exact order d, one for each unit u mod d,
    and [u/d] = [u (f/d)/f].  So the divisors are walked in key order, each
    block lists ``units(d)`` in key order, and the residue of [u/d] is the
    key of u (f/d) from ``mul_keys``: no gcd, division or sort per residue.

    Multiplying numerators by c in A maps [a/f] to [c a/f], so Y_g (c = g),
    a group element (c = its unit residue) and the sign (c = gamma's
    residue) all act on positions through ``images``, with no class
    objects.  ``y_images`` (Y_g's images), ``fibers`` and ``inside`` are
    memoised per divisor.
    """

    def __init__(self, bk, f):
        self.backend = bk
        self.level = f
        everything = bk.residues(f)
        classes, keys, blocks = [], [], []
        for d in bk.divisors(f):
            units = bk.unit_keys(d)
            blocks.append((d, len(keys), len(keys) + len(units)))
            classes += [XiClass(bk.key, d, everything[k]) for k in units]
            keys += bk.mul_keys(bk.divide(f, d), f, units)
        self.classes = tuple(classes)
        self.keys = tuple(keys)
        self.residues = tuple(map(everything.__getitem__, keys))
        # one int object per position, shared by the fibers, the inside
        # tuples and the operator columns instead of a copy in each
        self.positions = tuple(range(len(keys)))
        self._blocks = tuple(blocks)
        self._y_images: dict = {}
        self._fibers: dict = {}
        self._inside: dict = {}
        self._views: dict = {}

    @cached_property
    def position(self) -> dict:
        """Position of each residue, built on first use."""
        return dict(zip(self.residues, self.positions))

    @cached_property
    def index(self) -> dict:
        """Position of each class, built on first use."""
        return dict(zip(self.classes, self.positions))

    @cached_property
    def _at_key(self) -> list:
        """The position of each residue key: the keys are a permutation."""
        return sorted(self.positions, key=self.keys.__getitem__)

    def images(self, c) -> list:
        """The position of [c a/f] for each class [a/f], in order."""
        at = self._at_key
        return [at[k] for k in self.backend.mul_keys(c, self.level, self.keys)]

    def y_images(self, g) -> tuple:
        """``images(g)`` for a divisor g of f, as a tuple: the map of Y_g on
        positions."""
        key = self.backend.ideal_key(g)
        if key not in self._y_images:
            self._y_images[key] = tuple(self.images(g))
        return self._y_images[key]

    def inside(self, g) -> tuple:
        """Positions of the classes of Xi(f/g) for g | f: the blocks of the
        orders d that divide f/g."""
        bk = self.backend
        key = bk.ideal_key(g)
        if key not in self._inside:
            rest = bk.divide(self.level, g)
            self._inside[key] = tuple(
                i for d, start, stop in self._blocks if bk.divides(d, rest)
                for i in range(start, stop)
            )
        return self._inside[key]

    def fibers(self, g) -> dict:
        """Y_g fibers by position: each position of Xi(f/g) maps to the
        positions over it, ascending."""
        key = self.backend.ideal_key(g)
        if key not in self._fibers:
            out: dict = {}
            for j, i in zip(self.positions, self.y_images(g)):
                out.setdefault(i, []).append(j)
            self._fibers[key] = {i: tuple(js) for i, js in out.items()}
        return self._fibers[key]

    def fiber_classes(self, g) -> dict:
        """``fibers(g)`` with classes in place of positions."""
        key = self.backend.ideal_key(g)
        if key not in self._views:
            classes = self.classes
            self._views[key] = {
                classes[i]: tuple(classes[j] for j in js) for i, js in self.fibers(g).items()
            }
        return self._views[key]


def level_table(bk, f) -> LevelTable:
    """The class table of level f, cached."""
    key = (bk.key, bk.ideal_key(f))
    if key not in _table_cache:
        _table_cache[key] = LevelTable(bk, f)
    return _table_cache[key]


def xi_classes(bk, f) -> tuple[XiClass, ...]:
    """All homothety classes of f-torsion translates (|A/f| of them), sorted."""
    return level_table(bk, f).classes


def xi_in_level(bk, xi: XiClass, f) -> bool:
    return bk.divides(xi.order, f)


def y_map(bk, g, xi: XiClass) -> XiClass:
    """[x + W] -> [x + g^{-1} W]: numerator multiplication by g."""
    if xi.order == bk.one:
        return xi
    return xi_from_fraction(bk, bk.mul(g, xi.num), xi.order)


def y_fiber(bk, g, xi: XiClass, within_level) -> tuple[XiClass, ...]:
    """All classes at the given level mapping to xi under Y_g."""
    if not bk.divides(g, within_level):
        raise LevelMismatch("g must divide the ambient level")
    if not xi_in_level(bk, xi, bk.divide(within_level, g)):
        raise LevelMismatch("xi must be torsion at level within_level/g")
    fibers = fiber_map(bk, g, within_level)
    return fibers.get(xi, ())


def fiber_map(bk, g, level) -> dict:
    """Y_g fibers over all of Xi(level/g), keyed by class: the class view
    of ``LevelTable.fibers``, cached with the table.

    Each fiber is a tuple in ``xi_classes`` order.  Callers must not mutate
    the returned dict.
    """
    return level_table(bk, level).fiber_classes(g)


@dataclass(frozen=True)
class GfElement:
    """Element of the level-f ray class group, as a unit residue mod f."""

    backend_key: tuple
    level: object
    residue: object

    def __repr__(self):
        return f"Gf({self.residue} mod {self.level})"


class GfGroup:
    """(A/f)^x with its action bookkeeping; trivial class group makes this G_f."""

    def __init__(self, bk, f):
        self.backend = bk
        self.level = f
        self.elements = tuple(GfElement(bk.key, f, u) for u in bk.units(f))
        self._index = {e.residue: i for i, e in enumerate(self.elements)}
        self.identity = GfElement(bk.key, f, bk.residue_of(bk.one, f))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element(self, residue) -> GfElement:
        residue = self.backend.residue_of(residue, self.level)
        if residue not in self._index:
            raise LevelMismatch(f"{residue} is not a unit mod {self.level}")
        return GfElement(self.backend.key, self.level, residue)

    def mul(self, x: GfElement, y: GfElement) -> GfElement:
        res = self.backend.residue_mul(x.residue, y.residue, self.level)
        return GfElement(self.backend.key, self.level, res)

    def element_order(self, x: GfElement) -> int:
        out = x
        n = 1
        while out != self.identity:
            out = self.mul(out, x)
            n += 1
        return n

    def generators(self) -> list[GfElement]:
        """A deterministic generating set, grown greedily in residue order.

        The closures run on element indices: each generator acts by its
        multiplication map on the unit keys (``mul_keys``), built once."""
        bk, f = self.backend, self.level
        keys = bk.unit_keys(f)
        index = dict(zip(keys, range(len(keys))))
        one = index[bk.residue_key(self.identity.residue)]
        gens, steps, have = [], [], {one}
        for i, e in enumerate(self.elements):
            if i in have:
                continue
            gens.append(e)
            steps.append([index[k] for k in bk.mul_keys(e.residue, f, keys)])
            have = _closure(one, steps)
            if len(have) == len(keys):
                break
        return gens

    def reduce_to(self, x: GfElement, g) -> GfElement:
        """Image under the natural surjection G_f -> G_g for g | f."""
        if not self.backend.divides(g, self.level):
            raise LevelMismatch("target level must divide the source level")
        return GfElement(self.backend.key, g, self.backend.residue_of(x.residue, g))


def _closure(start, steps) -> set:
    """The indices reached from ``start`` by the maps ``steps``."""
    have, frontier = {start}, [start]
    while frontier:
        frontier = {step[a] for a in frontier for step in steps} - have
        have |= frontier
    return have


def gf_group(bk, f) -> GfGroup:
    """Level group, cached: the instances are read-only after construction."""
    key = (bk.key, bk.ideal_key(f))
    if key not in _group_cache:
        _group_cache[key] = GfGroup(bk, f)
    return _group_cache[key]


def g_action(bk, sigma: GfElement, xi: XiClass) -> XiClass:
    """Action of the ray class group on classes: numerator multiplication."""
    if not bk.divides(xi.order, sigma.level):
        raise LevelMismatch("sigma's level must be divisible by the class order")
    if xi.order == bk.one:
        return xi
    t = bk.residue_of(sigma.residue, xi.order)
    num = bk.residue_mul(xi.num, t, xi.order)
    return XiClass(bk.key, xi.order, num)


@dataclass(frozen=True)
class SignGroup:
    """The cyclic sign group at a level: order m and the acting residue.

    ``gamma`` is the image of the chosen generator in the level-f group; it
    acts on classes by numerator multiplication with (sgn gamma_0)^{-1},
    which is -1 archimedean and the inverse of the chosen generator of
    F_q^x in the function field case.
    """

    backend_key: tuple
    level: object
    order: int
    gamma: GfElement
    sgn_value: str


def sign_group(bk, f) -> SignGroup:
    gamma = GfElement(bk.key, f, bk.scalar_mul(bk.sign_scalar, bk.one, f))
    return SignGroup(bk.key, f, bk.sign_order, gamma, bk.sign_label)
