"""Command-line verification harness.

Every subcommand emits one JSON document: a manifest (command, backend,
parameters, library version) plus a list of checks, each carrying the
route(s) that produced its numbers and a PASS/FAIL/NOT_APPLICABLE verdict.
NOT_APPLICABLE means the input is a theorem's known exception, such as
Kubert's f = 2 mod 4, with nothing else left to check.  Output is
byte-identical across reruns of the same command: keys are sorted and no
timestamps or machine identifiers are recorded.  ``report_text`` writes the
document in the form of ``json.dumps(report, sort_keys=True, indent=2)``.

Exit codes: 0 every check is PASS or NOT_APPLICABLE, 1 at least one FAIL, 2
usage error (also an --out or --csv path that cannot be written), 3 internal
error (a structural certificate or exactness check failed, or any other
unexpected exception: a bug rather than a mathematical outcome), 4 out of
memory.  Exit 1 means FAIL and nothing else.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from json.encoder import encode_basestring_ascii

from . import __version__
from .arith import ARCHIMEDEAN, ParseError, backend
from .chainkit import HomologyTable, NonCommutingOperators, NotAComplex, PlusMinusNotZero
from .distmod import (
    BasisCertificateFailed,
    StructureCheckFailed,
    build_af,
    lemma411_counts,
    u_module,
    u_tower,
    xi0_basis,
)
from .ftate import AlmostFreeSpec, HypothesisViolated, ftate_closed_form, ftate_via_kt
from .iwasawa import RationalityFailure, level_relations_hold, u_values, uprime_compare
from .signh import (
    OrderViolation,
    expected_rank_theorem_value,
    rank_theorem_exception,
    sign_homology_U,
    verify_rank_theorem,
)
from .skcx import build_sk, sk_quotients_homology
from .znf import AbGroupInvariants, ShapeMismatch


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


def _int_levels(text: str, least: int, rule: str) -> list:
    """The comma-separated integer levels of ``--f``, each at least
    ``least``; anything else is a UsageError that states ``rule``."""
    try:
        levels = [int(piece) for piece in text.split(",")]
    except ValueError:
        levels = None
    if levels is None or any(f < least for f in levels):
        raise UsageError(f"{rule}; got --f {text}")
    return levels


# ---------------------------------------------------------------------------
# subcommand implementations, each returning a list of check dicts


def cmd_structure(args):
    bk = _backend_of(args)
    _check_level(args.level)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)

    def work(f):
        af = build_af(bk, bk.power(f, args.level), nu)
        # u_module returns only when U(f) is free of rank |G_f|; every other
        # outcome raises
        u = u_module(af)
        return {
            "name": "structure",
            "params": {"f": bk.format_ideal(f), "level": args.level},
            "route": "direct-tate",
            "tables": {
                "module": invariants_json(AbGroupInvariants(u.rank)),
                "expected_rank": len(af.group),
                "basis_size": len(u.basis_classes),
            },
            "verdict": "PASS",
        }

    return [work(f) for f in levels]


def cmd_sign_homology(args):
    bk = _backend_of(args)
    _check_level(args.level)
    levels = _levels(args, bk)
    nu = _parse_nu(args.nu, bk, levels)

    def work(f):
        table = sign_homology_U(bk, f, nu, level=args.level)
        # the verdict is the rank theorem's at f^level: NOT_APPLICABLE at its
        # exceptions, else equal orders, and without --nu the closed form
        level = bk.power(f, args.level)
        if rank_theorem_exception(bk, level):
            verdict = "NOT_APPLICABLE"
        else:
            ok = table[0].order() == table[1].order()
            if not nu:
                expected = expected_rank_theorem_value(bk, level)
                ok = ok and table[0] == expected and table[1] == expected
            verdict = "PASS" if ok else "FAIL"
        return {
            "name": "sign-homology",
            "params": {"f": bk.format_ideal(f), "level": args.level},
            "route": "direct-tate",
            "tables": {"sign_homology": table_json(table)},
            "verdict": verdict,
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
        # xi0_basis returns only when both certificates hold, with every
        # invariant factor 1; every other outcome raises
        cert = xi0_basis(af)
        ok = len(cert.classes) == len(af.group)
        return {
            "name": "basis",
            "params": {"f": bk.format_ideal(f)},
            "route": "direct-tate",
            "tables": {
                "depth_zero_count": len(cert.classes),
                "group_order": len(af.group),
                "lattice_invariants_all_one": True,
            },
            "verdict": "PASS" if ok else "FAIL",
        }

    return [work(f) for f in _levels(args, bk)]


def cmd_verify_lemma411(args):
    bk = _backend_of(args)

    def work(f):
        if bk.norm(f) == 1:
            raise UsageError("lemma411 needs a level with a prime divisor; f = 1 has none")
        checked, failures = lemma411_counts(bk, f)
        return {
            "name": "lemma411",
            "params": {"f": bk.format_ideal(f)},
            "route": "direct-tate",
            "tables": {"checked": checked, "failures": failures},
            "verdict": "PASS" if checked and failures == 0 else "FAIL",
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

    levels = _int_levels(args.f, 1, "u-function levels are positive integers")
    return [work(f) for f in levels]


def cmd_verify_uprime(args):
    def work(f):
        # uprime_compare returns only when the map is a basis of a lattice of
        # the expected rank, so of index 1; every other outcome raises
        report = uprime_compare(f)
        return {
            "name": "uprime",
            "params": {"f": f},
            "route": "closed-form",
            "tables": {
                "lattice_rank": report.rank,
                "expected_rank": report.rank,
                "index_invariants": [1] * report.rank,
            },
            "verdict": "PASS" if report.equivariant else "FAIL",
        }

    levels = _int_levels(args.f, 2, "uprime levels are integers of at least 2")
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

    rule = "sk compare levels are squarefree integers of at least 2"
    levels = _int_levels(args.f, 2, rule)
    if any(e > 1 for f in levels for _, e in ARCHIMEDEAN.factor(f)):
        raise UsageError(f"{rule}; got --f {args.f}")
    return [work(f) for f in levels]


def _parse_grid(text: str) -> tuple[int, int]:
    """R and M of an ``RxM`` grid, both at least 1."""
    try:
        rmax, mmax = (int(x) for x in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"--grid takes RxM with integers R, M >= 1; got {text!r}") from None
    if rmax < 1 or mmax < 1:
        raise UsageError(f"--grid needs R, M >= 1; got {text!r}")
    return rmax, mmax


def cmd_ftate(args):
    checks = []
    pairs = []
    if args.grid:
        rmax, mmax = _parse_grid(args.grid)
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
# wiring: the command-line grammar, one table that both ``_walk`` and
# ``build_parser`` read

# A flag's spec is its ``add_argument`` keywords: "action" "store_true" for
# a switch, "type" int (else the text as given), "default" (None if absent),
# "choices", "required" and "help".
_OUTPUT = {
    "--out": {"help": "write the JSON report to this file"},
    "--csv": {"help": "write a flat CSV of the checks to this file"},
    "--pretty": {"action": "store_true", "default": False, "help": "human-readable table"},
}
_BACKEND = {
    "--backend": {"choices": ["q", "fq"], "default": "q"},
    "--q": {"type": int, "default": None, "help": "prime power for fq"},
}
_F = {"--f": {"required": True}}
_IDEALS = {"--f": {"required": True, "help": "ideal or comma list of ideals"}}
_NU = {"--nu": {"default": None, "help": "nu values, e.g. 2=-1,3=1"}}
_LEVEL = {"--level": {"type": int, "default": 1}}
_WINDOW = {"--window": {"type": int, "default": None}}
_LEVELED = {**_OUTPUT, **_BACKEND, **_IDEALS, **_NU, **_LEVEL}

# command path -> (the cmd_* function that runs it, its line in the help of
# its parent or None for no line, its flags in help order)
_COMMANDS = {
    ("structure",): ("cmd_structure", "rank and basis of the distribution module", _LEVELED),
    ("sign-homology",): ("cmd_sign_homology", "both parities of the sign homology", _LEVELED),
    ("verify", "kubert"): ("cmd_verify_kubert", None, {**_OUTPUT, **_F}),
    ("verify", "yin"): (
        "cmd_verify_yin", None, {**_OUTPUT, "--q": {"type": int, "required": True}, **_F}),
    ("verify", "thm442"): (
        "cmd_verify_thm442", None, {**_OUTPUT, **_BACKEND, **_IDEALS, **_NU, **_WINDOW}),
    ("verify", "basis"): ("cmd_verify_basis", None, {**_OUTPUT, **_BACKEND, **_IDEALS}),
    ("verify", "lemma411"): ("cmd_verify_lemma411", None, {**_OUTPUT, **_BACKEND, **_IDEALS}),
    ("verify", "u-function"): ("cmd_verify_ufunction", None, {**_OUTPUT, **_F}),
    ("verify", "uprime"): ("cmd_verify_uprime", None, {**_OUTPUT, **_F}),
    ("sk", "compare"): ("cmd_sk_compare", None, {**_OUTPUT, **_F, **_LEVEL, **_WINDOW}),
    ("ftate",): ("cmd_ftate", "almost-free homology, closed form vs complex", {
        **_OUTPUT,
        "--r": {"type": int, "default": None},
        "--m": {"type": int, "default": None},
        "--grid": {"default": None, "help": "RxM sweep, e.g. 6x6"},
        **_WINDOW,
    }),
    ("tower",): ("cmd_tower", "level towers and stabilization", _LEVELED),
}
# the first word of a two-word path -> (the attribute that holds the second
# word, its line in the top-level help)
_GROUPS = {
    "verify": ("verify_what", "theorem verification campaigns"),
    "sk": ("sk_what", "symbol double complex routes"),
}


def _walk(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    the table, or None where the walk does not fully understand ``argv``: an
    unknown word or flag (``-h``, ``--help``, ``--`` and abbreviations among
    them), a repeated flag, a value that starts with ``-``, a value that is
    not an int where one is wanted or is outside the choices, or a missing
    required flag.  ``main`` hands those to argparse, which parses or refuses
    them."""
    path = tuple(argv[:1])
    if path not in _COMMANDS:
        path = tuple(argv[:2])
    if path not in _COMMANDS:
        return None
    run, _, flags = _COMMANDS[path]
    given = {}
    words = iter(argv[len(path):])
    for word in words:
        name, eq, value = word.partition("=")
        spec = flags.get(name)
        if spec is None or name in given:
            return None
        if spec.get("action") == "store_true":
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            # a flag that ends the line has no value, and is declined below
            value = next(words, "-")
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[name] = value
    values = {"command": path[0], "run": run}
    if len(path) == 2:
        values[_GROUPS[path[0]][0]] = path[1]
    for name, spec in flags.items():
        if name in given:
            values[name[2:]] = given[name]
        elif spec.get("required"):
            return None
        else:
            values[name[2:]] = spec.get("default")
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the same table.  It refuses a command line
    with one ``prog: error: ...`` line and exit 2, like every other
    refusal, instead of argparse's usage text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # subparsers take the class of their parent
        def error(self, message):
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="uod",
        description="exact universal-ordinary-distribution computations and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (run, line, flags) in _COMMANDS.items():
        parent = sub
        if len(path) == 2:
            if path[0] not in groups:
                dest, group_line = _GROUPS[path[0]]
                group = sub.add_parser(path[0], help=group_line)
                groups[path[0]] = group.add_subparsers(dest=dest, required=True)
            parent = groups[path[0]]
        # a help keyword, even None, gives the command a line in its
        # parent's help
        p = parent.add_parser(path[-1], **({} if line is None else {"help": line}))
        for name, spec in flags.items():
            p.add_argument(name, **spec)
        p.set_defaults(run=run)
    return parser


def _pretty_print(report, stream):
    for check in report["checks"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(check["params"].items()))
        print(f"{check['verdict']:>6}  {check['name']}  {params}", file=stream)


def report_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, written for the
    report's own types: dicts with str keys, in sorted order; lists and
    tuples; str, through json's C escaper; int, bool and None.  Any other
    type raises TypeError.  With an indent, json.dumps takes its
    pure-Python encoder on CPython 3.10 and 3.11, which takes about twice
    as long as this writer on the larger reports (0.57 against 0.26 ms for
    the reports of ``sk compare --f 13 --level 2``, ``ftate --r 6 --m 4``
    and three smaller ones, CPython 3.11 on an AMD EPYC core)."""
    out = []
    emit = out.append

    def write(v, newline):
        if isinstance(v, str):
            emit(encode_basestring_ascii(v))
        elif v is None:
            emit("null")
        elif v is True:
            emit("true")
        elif v is False:
            emit("false")
        elif isinstance(v, int):
            emit(int.__repr__(v))
        elif isinstance(v, dict):
            if not v:
                emit("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(v):
                if not isinstance(key, str):
                    raise TypeError(f"report keys are str, not {type(key).__name__}")
                emit(f"{sep}{encode_basestring_ascii(key)}: ")
                write(v[key], inner)
                sep = "," + inner
            emit(newline + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                emit("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in v:
                emit(sep)
                write(item, inner)
                sep = "," + inner
            emit(newline + "]")
        else:
            raise TypeError(f"{type(v).__name__} is not a report type")

    write(value, "\n")
    return "".join(out)


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


@functools.cache
def _parser():
    """The parser of ``build_parser``, built on the first ``main`` call of a
    process that the walk declines, and reused by the later ones.  With
    CPython 3.11 on an AMD EPYC core, the first build costs about 3 ms:
    0.9 ms to import argparse with gettext, then 1.9 ms to build (1.1 ms
    for a second build; the first lookup of a message imports ``locale``).
    The walk that spares an accepted call all of it takes about 10 us on a
    first call and 1.5 us after."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _walk(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        # the table names each command's function, looked up at each call
        checks = globals()[args.run](args)
        manifest = {
            "command": " ".join(["uod"] + argv),
            "backend": getattr(args, "backend", "q"),
            "q": getattr(args, "q", None),
            "parameters": _manifest_parameters(args),
            "version": __version__,
        }
        report = {"manifest": manifest, "checks": checks}
        # a value of no report type is a bug: TypeError, exit 3
        payload = report_text(report) + "\n"
    except (
        StructureCheckFailed,
        BasisCertificateFailed,
        NotAComplex,
        OrderViolation,
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
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(_csv_payload(report))
    except OSError as exc:
        # an unwritable path is a usage error; exit 1 stays for FAIL
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    if args.pretty:
        _pretty_print(report, sys.stdout)
    elif not args.out:
        sys.stdout.write(payload)
    failed = any(check["verdict"] == "FAIL" for check in report["checks"])
    return 1 if failed else 0
