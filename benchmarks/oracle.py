"""Expected results, computed without the ``uod`` library.

``check(argv, report_text)`` returns ``None`` when the report of ``uod argv``
says what the benchmark expects, and otherwise a one-line reason.  The
expectations come from closed forms and elementary number theory:

* rank theorem (``verify kubert`` / ``verify yin`` / ``sign-homology``): each parity of the sign
  homology is (Z/m)^(2^(r-1)), m = 2 over Z and q - 1 over F_q[T], r the
  number of distinct primes of f; NOT_APPLICABLE for f = 1 and for
  archimedean f = 2 mod 4;
* ``structure``: U(f) is free of rank |G_f| = phi(f^level);
* ``verify basis``: phi(f) depth-zero classes spanning a unimodular lattice;
* ``ftate``: (Z/m)^(2^(r-1)) in every stable degree;
* ``sk compare`` / ``verify thm442``: every route agrees with the scalar
  Koszul-Tate value (Z/2)^(2^(r-1)) on its stable degrees;
* ``verify lemma411``: r * phi(f) classes checked, none failing;
* ``verify u-function``: values on the units mod f, summing to zero;
* ``verify uprime``: rank phi(f) and index 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd


def factor_int(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor_int(n):
        out = out // p * (p - 1)
    return out


def rank_theorem(m: int, r: int) -> dict:
    """(Z/m)^(2^(r-1)) as the CLI prints invariants."""
    return {"free_rank": 0, "torsion": [m] * 2 ** (r - 1) if m > 1 else []}


# -- polynomials over F_p, coefficients low to high -------------------------


def parse_poly(text: str, p: int) -> list:
    """Expanded sums of monomials only, e.g. ``T^5+2*T+1``."""
    coeffs = {}
    for term in text.replace(" ", "").split("+"):
        c, _, mono = term.rpartition("*") if "*" in term else ("1", "", term)
        if "T" not in mono:
            c, deg = mono, 0
        elif "^" in mono:
            deg = int(mono.split("^")[1])
        else:
            deg = 1
        coeffs[deg] = (coeffs.get(deg, 0) + int(c)) % p
    out = [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem(a: list, b: list, p: int) -> list:
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_div(a: list, b: list, p: int) -> list:
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and a[-1] == 0:
            a.pop()
    return out


def _monic(d: int, p: int):
    for code in range(p**d):
        low = []
        for _ in range(d):
            low.append(code % p)
            code //= p
        yield low + [1]


def distinct_prime_factors(f: list, p: int) -> int:
    """Number of distinct monic irreducible factors, by trial division.

    Divisors are tried by increasing degree, so each one that divides has no
    smaller factor left and is irreducible."""
    if f[-1] != 1:
        f = _poly_div(f, [f[-1]], p)
    count = 0
    d = 1
    while 2 * d <= len(f) - 1:
        for g in _monic(d, p):
            if not _poly_rem(f, g, p):
                count += 1
                while not _poly_rem(f, g, p):
                    f = _poly_div(f, g, p)
        d += 1
    return count + (1 if len(f) > 1 else 0)


# -- report checks ------------------------------------------------------------

EXEMPT = "exempt"  # the theorem does not cover this level


def _stable(table: dict) -> list:
    if table.get("periodic"):
        return [table["even"], table["odd"]]
    lo, hi = table["stable"]
    return [v for n, v in table["degrees"].items() if lo <= int(n) <= hi]


def _all_equal(values: list, expected: dict, what: str):
    if not values:
        return f"{what}: no stable degree"
    for v in values:
        if v != expected:
            return f"{what}: {v} != expected {expected}"
    return None


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_one(argv, check) -> str | None:
    t = check["tables"]
    cmd = argv[0] if argv[0] not in ("verify", "sk") else argv[1]
    if cmd == "structure":
        f = int(check["params"]["f"]) ** int(_opt(argv, "--level", "1"))
        rank = phi(f)
        want = {"free_rank": rank, "torsion": []}
        if t["module"] != want or t["expected_rank"] != rank or t["basis_size"] != rank:
            return f"structure f={f}: {t} but U(f) is free of rank {rank}"
        return None
    if cmd == "basis":
        n = phi(int(check["params"]["f"]))
        want = {"depth_zero_count": n, "group_order": n, "lattice_invariants_all_one": True}
        return None if t == want else f"basis: {t} != {want}"
    if cmd == "sign-homology":
        f = int(check["params"]["f"])
        if f == 1 or f % 4 == 2 or check["params"]["level"] != 1:
            return f"sign-homology f={f}: no closed form for this level"
        want = rank_theorem(2, len(factor_int(f)))
        return _all_equal(_stable(t["sign_homology"]), want, f"sign-homology f={f}")
    if cmd == "kubert":
        f = int(check["params"]["f"])
        if f == 1 or f % 4 == 2:
            return EXEMPT
        want = rank_theorem(2, len(factor_int(f)))
        return _all_equal([t["even"], t["odd"], t["expected"]], want, f"kubert f={f}")
    if cmd == "yin":
        q = int(_opt(argv, "--q"))
        f = parse_poly(check["params"]["f"].replace(" ", ""), q)
        want = rank_theorem(q - 1, distinct_prime_factors(f, q))
        return _all_equal([t["even"], t["odd"], t["expected"]], want, f"yin q={q} f={f}")
    if cmd == "ftate":
        r, m = check["params"]["rank"], check["params"]["torsion_order"]
        want = rank_theorem(m, r)
        return _all_equal([t["closed_form"]] + _stable(t["via_kt"]), want, f"ftate r={r} m={m}")
    if cmd == "thm442":
        f = int(check["params"]["f"])
        want = rank_theorem(2, len(factor_int(f)))
        return _all_equal(_stable(t["kt_lhs"]) + _stable(t["direct"]), want, f"thm442 f={f}")
    if cmd == "compare":
        f = int(check["params"]["f"])
        levels = t["levels"]
        if len(levels) != int(_opt(argv, "--level", "1")):
            return f"sk compare f={f}: {len(levels)} levels reported"
        want = rank_theorem(2, len(factor_int(f)))
        for lv in levels:
            values = [v for k in ("via_n", "via_skprime", "kt_reference") for v in _stable(lv[k])]
            bad = _all_equal(values, want, f"sk compare f={f} level {lv['level']}")
            if bad or not lv["agree"]:
                return bad or f"sk compare f={f} level {lv['level']}: routes disagree"
        return None
    if cmd == "lemma411":
        f = int(check["params"]["f"])
        want = {"checked": len(factor_int(f)) * phi(f), "failures": 0}
        return None if t == want else f"lemma411 f={f}: {t} != {want}"
    if cmd == "u-function":
        f = int(check["params"]["f"])
        units = {str(x) for x in range(1, f) if gcd(x, f) == 1}
        values = t["values"]
        if set(values) != units:
            return f"u-function f={f}: values not indexed by the units mod f"
        if sum(Fraction(v) for v in values.values()) != 0:
            return f"u-function f={f}: values do not sum to zero"
        return None if t["distribution_relations"] is True else f"u-function f={f}: relations fail"
    if cmd == "uprime":
        f = int(check["params"]["f"])
        n = phi(f)
        want = {"lattice_rank": n, "expected_rank": n, "index_invariants": [1] * n}
        return None if t == want else f"uprime f={f}: {t} != {want}"
    return f"no expectation for {' '.join(argv)}"


def check(argv: list, report_text: str) -> str | None:
    try:
        report = json.loads(report_text)
    except ValueError:
        return "report is not JSON"
    checks = report.get("checks") or []
    if not checks:
        return "report has no checks"
    for c in checks:
        try:
            reason = _check_one(argv, c)
        except (KeyError, TypeError, ValueError) as exc:
            return f"report lacks the expected fields ({type(exc).__name__}: {exc})"
        want = "NOT_APPLICABLE" if reason == EXEMPT else "PASS"
        if reason not in (None, EXEMPT):
            return reason
        if c.get("verdict") != want:
            return f"verdict {c.get('verdict')}, expected {want}"
    return None
