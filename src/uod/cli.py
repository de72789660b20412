"""Command-line verification harness.

Every subcommand emits one JSON document: a manifest (command, backend,
parameters, library version) plus a list of checks, each carrying the
route(s) that produced its numbers and a PASS/FAIL/NOT_APPLICABLE verdict.
NOT_APPLICABLE means the input is a theorem's known exception, such as
Kubert's f = 2 mod 4, with nothing else left to check.  Output is
byte-identical across reruns of the same command: keys are sorted and no
timestamps or machine identifiers are recorded.

Exit codes: 0 every check is PASS or NOT_APPLICABLE, 1 at least one FAIL, 2
usage error, 3 internal error (a structural certificate or exactness check
failed, or any other unexpected exception: a bug rather than a mathematical
outcome), 4 out of memory.  Exit 1 means FAIL and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .arith import ARCHIMEDEAN, ParseError, backend, xi_classes
from .chainkit import HomologyTable, NonCommutingOperators, NotAComplex, PlusMinusNotZero
from .distmod import (
    BasisCertificateFailed,
    StructureCheckFailed,
    build_af,
    lemma411_check,
    u_module,
    u_tower,
    xi0_basis,
)
from .ftate import AlmostFreeSpec, HypothesisViolated, ftate_closed_form, ftate_via_kt
from .iwasawa import RationalityFailure, level_relations_hold, u_values, uprime_compare
from .signh import OrderViolation, sign_homology_U, verify_rank_theorem
from .skcx import build_sk, sk_quotients_homology
from .znf import AbGroupInvariants, NoIntegerSolution, ShapeMismatch


class UsageError(ValueError):
    pass


def invariants_json(inv: AbGroupInvariants) -> dict:
    return {"free_rank": inv.free_rank, "torsion": sorted(inv.torsion)}


def table_json(table: HomologyTable) -> dict:
    if table.periodic:
        return {
            "periodic": True,
            "even": invariants_json(table[0]),
            "odd": invariants_json(table[1]),
        }
    out = {
        "degrees": {str(n): invariants_json(v) for n, v in sorted(table.entries.items())},
    }
    if table.stable is not None:
        out["stable"] = list(table.stable)
    return out


def _parse_nu(text: str | None, bk, levels) -> dict:
    """The --nu values; every key must be a prime divisor of every level."""
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad nu assignment {piece!r}; use p=v")
        key, value = piece.split("=", 1)
        out[bk.parse_ideal(key.strip())] = int(value)
    for f in levels:
        primes = {p for p, _ in bk.factor(f)}
        for p in out:
            if p not in primes:
                raise UsageError(
                    f"--nu key {bk.format_ideal(p)} is not a prime divisor of "
                    f"{bk.format_ideal(f)}"
                )
    return out


def _check_level(level: int):
    if level < 1:
        raise UsageError(f"--level must be at least 1; got {level}")


def _window_from_width(width: int | None, r: int):
    if width is None:
        width = 2 * r + 6
    if width < 2 * r + 4:
        raise UsageError(f"window width {width} is below the minimum {2 * r + 4}")
    lo = -(width // 2)
    return (lo, lo + width - 1)


def _backend_of(args):
    kind = getattr(args, "backend", "q")
    q = getattr(args, "q", None)
    if q is not None and kind == "q":
        kind = "fq"
    return backend(kind, q)


def _levels(args, bk):
    text = args.f
    return [bk.parse_ideal(piece) for piece in text.split(",")]


# ---------------------------------------------------------------------------
# subcommand implementations, each returning a list of check dicts


def cmd_structure(args):
    bk = _backend_of(args)
    _check_level(args.level)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)

    def work(f):
        af = build_af(bk, bk.power(f, args.level), nu)
        u = u_module(af)
        expected = len(af.group)
        ok = u.invariants.is_free and u.rank == expected
        return {
            "name": "structure",
            "params": {"f": bk.format_ideal(f), "level": args.level},
            "route": "direct-tate",
            "tables": {
                "module": invariants_json(u.invariants),
                "expected_rank": expected,
                "basis_size": len(u.basis_classes),
            },
            "verdict": "PASS" if ok else "FAIL",
        }

    return [work(f) for f in levels]


def cmd_sign_homology(args):
    bk = _backend_of(args)
    _check_level(args.level)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)

    def work(f):
        table = sign_homology_U(bk, f, nu, level=args.level)
        symmetric = table[0].order() == table[1].order()
        return {
            "name": "sign-homology",
            "params": {"f": bk.format_ideal(f), "level": args.level},
            "route": "direct-tate",
            "tables": {"sign_homology": table_json(table)},
            "verdict": "PASS" if symmetric else "FAIL",
        }

    return [work(f) for f in levels]


def _rank_theorem_checks(args, bk, name: str, params: dict):
    """One rank-theorem check per level: Kubert's over Z, Yin's over F_q[T]."""

    def work(f):
        report = verify_rank_theorem(bk, f)
        tables = {}
        if report.applicable:
            tables = {
                "expected": invariants_json(report.expected),
                "even": invariants_json(report.even),
                "odd": invariants_json(report.odd),
            }
        return {
            "name": name,
            "params": {"f": bk.format_ideal(f), **params},
            "route": "direct-tate",
            "tables": tables,
            "verdict": report.verdict,
        }

    return [work(f) for f in _levels(args, bk)]


def cmd_verify_kubert(args):
    return _rank_theorem_checks(args, backend("q"), "kubert", {})


def cmd_verify_yin(args):
    return _rank_theorem_checks(args, backend("fq", args.q), "yin", {"q": args.q})


def cmd_verify_thm442(args):
    bk = _backend_of(args)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)
    from .ftate import thm442_lhs

    def work(f):
        r = len(bk.factor(f))
        window = _window_from_width(args.window, r)
        lhs = thm442_lhs(bk, f, nu, window=window)
        # the direct side is stable from level 1 except outside the rank
        # theorem (f = 2 mod 4), where squaring the level lands back in range
        level = 2 if bk.outside_rank_theorem(f) else 1
        rhs = sign_homology_U(bk, f, nu, level=level)
        ok = lhs.agrees_with(rhs)
        return {
            "name": "thm442",
            "params": {"f": bk.format_ideal(f), "level": level},
            "routes": ["kt-lhs", "direct-tate"],
            "tables": {"kt_lhs": table_json(lhs), "direct": table_json(rhs)},
            "verdict": "PASS" if ok else "FAIL",
        }

    return [work(f) for f in levels]


def cmd_verify_basis(args):
    bk = _backend_of(args)

    def work(f):
        af = build_af(bk, f)
        cert = xi0_basis(af)
        ok = cert.unimodular and len(cert.classes) == len(af.group)
        return {
            "name": "basis",
            "params": {"f": bk.format_ideal(f)},
            "route": "direct-tate",
            "tables": {
                "depth_zero_count": len(cert.classes),
                "group_order": len(af.group),
                "lattice_invariants_all_one": all(d == 1 for d in cert.lattice_invariants),
            },
            "verdict": "PASS" if ok else "FAIL",
        }

    return [work(f) for f in _levels(args, bk)]


def cmd_verify_lemma411(args):
    bk = _backend_of(args)

    def work(f):
        if bk.norm(f) == 1:
            raise UsageError("lemma411 needs a level with a prime divisor; f = 1 has none")
        exact = [cls for cls in xi_classes(bk, f) if cls.order == f]
        equal = [lemma411_check(bk, p, f, cls).equal for p, _ in bk.factor(f) for cls in exact]
        failures = equal.count(False)
        return {
            "name": "lemma411",
            "params": {"f": bk.format_ideal(f)},
            "route": "direct-tate",
            "tables": {"checked": len(equal), "failures": failures},
            "verdict": "PASS" if equal and failures == 0 else "FAIL",
        }

    return [work(f) for f in _levels(args, bk)]


def cmd_verify_ufunction(args):
    def work(f):
        values = u_values(f)  # raises on any exactness failure
        relations_ok = level_relations_hold(f)
        return {
            "name": "u-function",
            "params": {"f": f},
            "route": "closed-form",
            "tables": {
                "values": {str(x): str(v) for x, v in sorted(values.items())},
                "distribution_relations": relations_ok,
            },
            "verdict": "PASS" if relations_ok else "FAIL",
        }

    levels = [int(f) for f in args.f.split(",")]
    if any(f < 1 for f in levels):
        raise UsageError(f"u-function levels are positive integers; got --f {args.f}")
    return [work(f) for f in levels]


def cmd_verify_uprime(args):
    def work(f):
        report = uprime_compare(f)
        return {
            "name": "uprime",
            "params": {"f": f},
            "route": "closed-form",
            "tables": {
                "lattice_rank": report.lattice_rank,
                "expected_rank": report.expected_rank,
                "index_invariants": sorted(report.index_invariants),
            },
            "verdict": "PASS" if report.isomorphism else "FAIL",
        }

    levels = [int(f) for f in args.f.split(",")]
    if any(f < 2 for f in levels):
        raise UsageError(f"uprime levels are integers of at least 2; got --f {args.f}")
    return [work(f) for f in levels]


def cmd_sk_compare(args):
    _check_level(args.level)

    def work(f):
        r = len(ARCHIMEDEAN.factor(f))
        window = _window_from_width(args.window, r)
        per_level = []
        reference = None
        agree_levels = True
        compared = []
        for level in range(1, args.level + 1):
            sk = build_sk(f, level, window)
            cmp = sk_quotients_homology(sk)
            entry = {
                "level": level,
                "agree": cmp.agree,
                "via_n": table_json(cmp.via_n),
                "via_skprime": table_json(cmp.via_skprime),
                "kt_reference": table_json(cmp.kt),
            }
            per_level.append(entry)
            # level 1 at Kubert's exception is reported but not compared; a
            # higher level f^k is 0 mod 4 and inside the theorem again
            if level == 1 and ARCHIMEDEAN.outside_rank_theorem(f):
                entry["exception"] = True
                continue
            compared.append(entry)
            stable_value = cmp.via_n.constant_value()
            if reference is None:
                reference = stable_value
            elif stable_value != reference:
                agree_levels = False
        if not compared:
            verdict = "NOT_APPLICABLE"
        elif agree_levels and all(entry["agree"] for entry in compared):
            verdict = "PASS"
        else:
            verdict = "FAIL"
        return {
            "name": "sk-compare",
            "params": {"f": f, "levels": args.level},
            "routes": ["sk-viaN", "sk-viaSKprime", "kt-lhs"],
            "tables": {"levels": per_level},
            "verdict": verdict,
        }

    levels = [int(f) for f in args.f.split(",")]
    return [work(f) for f in levels]


def cmd_ftate(args):
    checks = []
    pairs = []
    if args.grid:
        rmax, mmax = (int(x) for x in args.grid.lower().split("x"))
        pairs = [(r, m) for r in range(1, rmax + 1) for m in range(1, mmax + 1)]
    else:
        if args.r is None or args.m is None:
            raise UsageError("ftate needs --r and --m, or --grid RxM")
        pairs = [(args.r, args.m)]
    for r, m in pairs:
        spec = AlmostFreeSpec(r, m)
        window = _window_from_width(args.window, r)
        closed = ftate_closed_form(spec)
        table = ftate_via_kt(spec, window=window)
        degs = table.stable_degrees()
        ok = bool(degs) and all(table.entries[n] == closed for n in degs)
        checks.append(
            {
                "name": "ftate",
                "params": {"rank": r, "torsion_order": m},
                "routes": ["closed-form", "kt-lhs"],
                "tables": {
                    "closed_form": invariants_json(closed),
                    "via_kt": table_json(table),
                },
                "verdict": "PASS" if ok else "FAIL",
            }
        )
    return checks


def cmd_tower(args):
    bk = _backend_of(args)
    _check_level(args.level)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)

    def work(f):
        report = u_tower(bk, f, args.level, nu)
        ok = report.stabilized or report.exception_flagged
        return {
            "name": "tower",
            "params": {"f": bk.format_ideal(f), "levels": args.level},
            "route": "direct-tate",
            "tables": {
                "stabilized": report.stabilized,
                "exception_flagged": report.exception_flagged,
                "squarefree": report.squarefree,
                "per_level": [
                    {
                        "exponent": lv.exponent,
                        "even": invariants_json(lv.sign_invariants[0]),
                        "odd": invariants_json(lv.sign_invariants[1]),
                    }
                    for lv in report.levels
                ],
            },
            "verdict": "PASS" if ok else "FAIL",
        }

    return [work(f) for f in levels]


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the JSON report to this file")
    output.add_argument("--csv", help="write a flat CSV of the checks to this file")
    output.add_argument("--pretty", action="store_true", help="human-readable table")

    parser = argparse.ArgumentParser(
        prog="uod",
        description="exact universal-ordinary-distribution computations and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q_flag=True, nu_flag=True, level_flag=True):
        if q_flag:
            p.add_argument("--backend", choices=["q", "fq"], default="q")
            p.add_argument("--q", type=int, default=None, help="prime power for fq")
        p.add_argument("--f", required=True, help="ideal or comma list of ideals")
        if nu_flag:
            p.add_argument("--nu", default=None, help="nu values, e.g. 2=-1,3=1")
        if level_flag:
            p.add_argument("--level", type=int, default=1)

    p = sub.add_parser("structure", parents=[output], help="rank and basis of the distribution module")
    common(p)
    p.set_defaults(run=cmd_structure)

    p = sub.add_parser("sign-homology", parents=[output], help="both parities of the sign homology")
    common(p)
    p.set_defaults(run=cmd_sign_homology)

    verify = sub.add_parser("verify", help="theorem verification campaigns")
    vsub = verify.add_subparsers(dest="verify_what", required=True)

    p = vsub.add_parser("kubert", parents=[output])
    p.add_argument("--f", required=True)
    p.set_defaults(run=cmd_verify_kubert)

    p = vsub.add_parser("yin", parents=[output])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True)
    p.set_defaults(run=cmd_verify_yin)

    p = vsub.add_parser("thm442", parents=[output])
    common(p, level_flag=False)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(run=cmd_verify_thm442)

    p = vsub.add_parser("basis", parents=[output])
    common(p, nu_flag=False, level_flag=False)
    p.set_defaults(run=cmd_verify_basis)

    p = vsub.add_parser("lemma411", parents=[output])
    common(p, nu_flag=False, level_flag=False)
    p.set_defaults(run=cmd_verify_lemma411)

    p = vsub.add_parser("u-function", parents=[output])
    p.add_argument("--f", required=True)
    p.set_defaults(run=cmd_verify_ufunction)

    p = vsub.add_parser("uprime", parents=[output])
    p.add_argument("--f", required=True)
    p.set_defaults(run=cmd_verify_uprime)

    sk = sub.add_parser("sk", help="symbol double complex routes")
    ssub = sk.add_subparsers(dest="sk_what", required=True)
    p = ssub.add_parser("compare", parents=[output])
    p.add_argument("--f", required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(run=cmd_sk_compare)

    p = sub.add_parser("ftate", parents=[output], help="almost-free homology, closed form vs complex")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--grid", default=None, help="RxM sweep, e.g. 6x6")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(run=cmd_ftate)

    p = sub.add_parser("tower", parents=[output], help="level towers and stabilization")
    common(p)
    p.set_defaults(run=cmd_tower)

    return parser


def _pretty_print(report, stream):
    for check in report["checks"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(check["params"].items()))
        print(f"{check['verdict']:>6}  {check['name']}  {params}", file=stream)


def _csv_payload(report) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "params", "routes", "verdict", "tables"])
    for check in report["checks"]:
        params = ";".join(f"{k}={v}" for k, v in sorted(check["params"].items()))
        routes = ";".join(check.get("routes", [check.get("route", "")]))
        tables = json.dumps(check["tables"], sort_keys=True)
        writer.writerow([check["name"], params, routes, check["verdict"], tables])
    return buf.getvalue()


def _manifest_parameters(args) -> dict:
    skip = {"run", "command", "verify_what", "sk_what", "out", "csv", "pretty", "backend", "q"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None or callable(value):
            continue
        out[key] = value
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        checks = args.run(args)
    except (
        StructureCheckFailed,
        BasisCertificateFailed,
        NotAComplex,
        OrderViolation,
        NoIntegerSolution,
        RationalityFailure,
        ShapeMismatch,
        NonCommutingOperators,
        PlusMinusNotZero,
        AssertionError,
        ArithmeticError,
        RuntimeError,
    ) as exc:
        # exactness certificates and structural checks: bugs, not outcomes;
        # several of them are ValueErrors, so they are caught first
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ParseError, HypothesisViolated, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller level", file=sys.stderr)
        return 4
    except Exception as exc:
        # keep exit 1 for FAIL alone
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "command": " ".join(["uod"] + argv),
        "backend": getattr(args, "backend", "q"),
        "q": getattr(args, "q", None),
        "parameters": _manifest_parameters(args),
        "version": __version__,
    }
    report = {"manifest": manifest, "checks": checks}
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_csv_payload(report))
    if args.pretty:
        _pretty_print(report, sys.stdout)
    elif not args.out:
        sys.stdout.write(payload)
    failed = any(check["verdict"] == "FAIL" for check in report["checks"])
    return 1 if failed else 0
