import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_reference import with_map_uncertified, with_operator
from uod import arith, cli, distmod, iwasawa, signh
from uod.chainkit import MapOperator, NonCommutingOperators, PlusMinusNotZero
from uod.cli import main
from uod.distmod import g_op_name
from uod.signh import OrderViolation
from uod.znf import ShapeMismatch

SRC = Path(cli.__file__).resolve().parents[1]


def run_json(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestVerifyCommands:
    def test_kubert_passes(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "kubert", "--f", "3,4,5"])
        assert code == 0
        report = json.loads(payload)
        assert [c["verdict"] for c in report["checks"]] == ["PASS"] * 3
        assert all(c["route"] == "direct-tate" for c in report["checks"])

    def test_kubert_not_applicable_does_not_fail(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "kubert", "--f", "6"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["verdict"] == "NOT_APPLICABLE"

    def test_yin(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "yin", "--q", "3", "--f", "T"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["tables"]["expected"] == {
            "free_rank": 0,
            "torsion": [2],
        }

    @pytest.mark.parametrize("argv", [
        ["verify", "yin", "--q", "67", "--f", "T"],
        ["verify", "yin", "--q", "81", "--f", "T"],
        ["verify", "yin", "--q", "101", "--f", "T"],
        ["sign-homology", "--backend", "fq", "--q", "71", "--f", "T"],
    ])
    def test_sign_order_above_64(self, tmp_path, argv):
        # gamma0 has order q - 1 here; its certificate is bounded by that
        code, payload = run_json(tmp_path, argv)
        assert code == 0
        [check] = json.loads(payload)["checks"]
        assert check["verdict"] == "PASS"

    def test_thm442(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "thm442", "--f", "15"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["routes"] == ["kt-lhs", "direct-tate"]

    def test_basis_and_lemma(self, tmp_path):
        code, _ = run_json(tmp_path, ["verify", "basis", "--f", "12"])
        assert code == 0
        code, _ = run_json(tmp_path, ["verify", "lemma411", "--f", "12"])
        assert code == 0

    def test_uprime_and_ufunction(self, tmp_path):
        code, _ = run_json(tmp_path, ["verify", "uprime", "--f", "3,4"])
        assert code == 0
        code, payload = run_json(tmp_path, ["verify", "u-function", "--f", "3"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["tables"]["values"]["1"] == "1/2"


class TestOtherCommands:
    def test_structure(self, tmp_path):
        code, payload = run_json(tmp_path, ["structure", "--f", "8,12"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["tables"]["module"]["free_rank"] == 4

    def test_sign_homology_ff(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            ["sign-homology", "--backend", "fq", "--q", "3", "--f", "T"],
        )
        assert code == 0
        report = json.loads(payload)
        table = report["checks"][0]["tables"]["sign_homology"]
        assert table["even"] == {"free_rank": 0, "torsion": [2]}

    @pytest.mark.parametrize("argv, even, odd", [
        # U(1) and U(2) are Z with trivial sign, since -1/2 = 1/2
        (["--f", "1"], [2], []),
        (["--f", "2"], [2], []),
        (["--backend", "fq", "--q", "3", "--f", "1"], [2], []),
        # f = 2 mod 4 lies outside the rank theorem, even where the orders agree
        (["--f", "6"], [2], [2]),
    ])
    def test_sign_homology_outside_the_theorem_is_not_applicable(self, tmp_path, argv, even, odd):
        code, payload = run_json(tmp_path, ["sign-homology", *argv])
        assert code == 0
        [check] = json.loads(payload)["checks"]
        assert check["verdict"] == "NOT_APPLICABLE"
        table = check["tables"]["sign_homology"]
        assert (table["even"]["torsion"], table["odd"]["torsion"]) == (even, odd)

    @pytest.mark.parametrize("argv", [["--f", "140"], ["--f", "2", "--level", "2"],
                                      ["--f", "6", "--level", "2"]])
    def test_sign_homology_inside_the_theorem_passes(self, tmp_path, argv):
        code, payload = run_json(tmp_path, ["sign-homology", *argv])
        assert code == 0
        [check] = json.loads(payload)["checks"]
        assert check["verdict"] == "PASS"

    def test_sign_homology_140_report(self, tmp_path):
        # the report of a benchmark op, pinned field by field
        code, payload = run_json(tmp_path, ["sign-homology", "--f", "140"])
        assert code == 0
        [check] = json.loads(payload)["checks"]
        z2_4 = {"free_rank": 0, "torsion": [2, 2, 2, 2]}
        assert check == {
            "name": "sign-homology",
            "params": {"f": "140", "level": 1},
            "route": "direct-tate",
            "tables": {"sign_homology": {"periodic": True, "even": z2_4, "odd": z2_4}},
            "verdict": "PASS",
        }

    def test_sign_homology_off_the_closed_form_fails(self, tmp_path, monkeypatch):
        # equal orders are not enough where the theorem applies and no --nu
        # is given: each parity must be the rank theorem's value
        from uod.znf import AbGroupInvariants

        monkeypatch.setattr(cli, "expected_rank_theorem_value",
                            lambda bk, f: AbGroupInvariants(0, (4,)))
        code, payload = run_json(tmp_path, ["sign-homology", "--f", "3"])
        assert code == 1
        assert json.loads(payload)["checks"][0]["verdict"] == "FAIL"
        # with --nu only the orders are compared
        code, payload = run_json(tmp_path, ["sign-homology", "--f", "12", "--nu", "2=-1"])
        assert code == 0
        assert json.loads(payload)["checks"][0]["verdict"] == "PASS"

    def test_sk_compare(self, tmp_path):
        code, payload = run_json(tmp_path, ["sk", "compare", "--f", "3", "--level", "2"])
        assert code == 0
        report = json.loads(payload)
        levels = report["checks"][0]["tables"]["levels"]
        assert len(levels) == 2 and all(entry["agree"] for entry in levels)
        assert not any("exception" in entry for entry in levels)

    @pytest.mark.parametrize("f", ["6", "30"])
    def test_sk_compare_kubert_exception_alone(self, tmp_path, f):
        # f = 2 mod 4 at level 1 is flagged and left out; nothing else to compare
        code, payload = run_json(tmp_path, ["sk", "compare", "--f", f])
        assert code == 0
        check = json.loads(payload)["checks"][0]
        assert check["verdict"] == "NOT_APPLICABLE"
        [entry] = check["tables"]["levels"]
        assert entry["level"] == 1 and entry["exception"] is True

    def test_sk_compare_kubert_exception_with_level_2(self, tmp_path):
        code, payload = run_json(tmp_path, ["sk", "compare", "--f", "6", "--level", "2"])
        assert code == 0
        check = json.loads(payload)["checks"][0]
        assert check["verdict"] == "PASS"
        first, second = check["tables"]["levels"]
        assert first["exception"] is True and not first["agree"]
        assert "exception" not in second and second["agree"]

    def test_ftate_grid(self, tmp_path):
        code, payload = run_json(tmp_path, ["ftate", "--grid", "2x2"])
        assert code == 0
        assert len(json.loads(payload)["checks"]) == 4

    def test_tower(self, tmp_path):
        code, payload = run_json(tmp_path, ["tower", "--f", "2", "--level", "2"])
        assert code == 0
        report = json.loads(payload)
        assert report["checks"][0]["tables"]["exception_flagged"] is True


_REPORT_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    st.characters(),
))
_REPORT_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**130), 2**130), _REPORT_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_REPORT_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)

# one command of each subcommand, each quick
_ONE_PER_SUBCOMMAND = [
    ["structure", "--f", "12"],
    ["sign-homology", "--backend", "fq", "--q", "3", "--f", "T^2+T"],
    ["verify", "kubert", "--f", "3,4,6"],
    ["verify", "yin", "--q", "3", "--f", "T^2+T"],
    ["verify", "thm442", "--f", "15"],
    ["verify", "basis", "--f", "12"],
    ["verify", "lemma411", "--f", "12"],
    ["verify", "u-function", "--f", "12"],
    ["verify", "uprime", "--f", "12"],
    ["sk", "compare", "--f", "15", "--level", "2"],
    ["ftate", "--r", "2", "--m", "3"],
    ["tower", "--f", "12", "--level", "2"],
]


class TestReportText:
    @settings(max_examples=300, deadline=None)
    @given(_REPORT_VALUE)
    def test_equals_json_dumps_sorted_with_indent_2(self, value):
        assert cli.report_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        1.5,
        {"a": [0.0]},
        {1, 2},
        {"a": frozenset()},
        {1: "one"},
        {"a": [{None: 0}]},
    ], ids=["float", "nested-float", "set", "nested-set", "int-key", "nested-none-key"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli.report_text(value)

    @pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND, ids=" ".join)
    def test_stdout_and_out_file_are_the_canonical_json(self, tmp_path, capsys, argv):
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        # the --out run records its own command line in the manifest, and
        # differs from stdout in that string alone
        path = tmp_path / "report.json"
        main(argv + ["--out", str(path)])
        assert capsys.readouterr().out == ""
        command = " ".join(["uod", *argv])
        expected = out.replace(json.dumps(command), json.dumps(f"{command} --out {path}"), 1)
        assert expected != out
        assert path.read_text(encoding="utf-8") == expected


class TestHarnessContract:
    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_json(tmp_path, ["verify", "kubert", "--f", "3,4,5,15"])
        _, second = run_json(tmp_path, ["verify", "kubert", "--f", "3,4,5,15"])
        assert first == second

    def test_reused_parser_matches_fresh_processes(self, capsys):
        # main builds its parser once per process; a usage error must leave
        # it as a fresh one would be, so sequential calls answer like
        # separate processes do, exit codes and stdout alike
        runs = [
            ["verify", "kubert", "--f", "3,x"],
            ["verify", "yin", "--f", "T"],  # argparse: missing --q
            ["verify", "kubert", "--f", "3,5"],
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv in runs:
            fresh = subprocess.run([sys.executable, "-m", "uod", *argv],
                                   capture_output=True, env=env)
            code = main(argv)
            assert (code, capsys.readouterr().out.encode()) == (fresh.returncode, fresh.stdout)
        assert [main(argv) for argv in runs] == [2, 2, 0]

    def test_usage_error_exit_2(self, capsys):
        assert main(["sk", "compare", "--f", "not-a-number", "--level", "2"]) == 2
        assert main(["verify", "yin", "--f", "T"]) == 2  # missing --q
        assert main(["verify", "kubert"]) == 2  # missing --f

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "lemma411", "--f", "1"],
            ["verify", "lemma411", "--backend", "fq", "--q", "3", "--f", "1"],
            ["verify", "u-function", "--f", "0"],
            ["verify", "u-function", "--f", "-4"],
            ["verify", "u-function", "--f", "12,-4"],
            # no prime gives no Koszul operator: the KT side would be the bare
            # Tate column, one parity off the direct side
            ["verify", "thm442", "--f", "1"],
            ["verify", "thm442", "--f", "15,1"],
            ["verify", "thm442", "--backend", "fq", "--q", "3", "--f", "1"],
            ["ftate", "--grid", "0x3"],
            ["ftate", "--grid", "2x0"],
            ["ftate", "--grid", "3"],
            ["ftate", "--grid", "axb"],
            ["ftate", "--grid=-1x2"],
        ],
    )
    def test_vacuous_levels_exit_2(self, capsys, argv):
        # nothing to check is a usage error, never a PASS
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("levels", ["120,1", "1", "0", "12,-3", "60,x"])
    def test_uprime_levels_checked_before_any_work(self, monkeypatch, capsys, levels):
        def refuse(f, u=None):
            raise AssertionError(f"uprime_compare({f}) ran before the levels were checked")

        monkeypatch.setattr(cli, "uprime_compare", refuse)
        assert main(["verify", "uprime", "--f", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("levels", ["12,1x", "x", "12,", "1.5"])
    def test_uprime_malformed_level_is_one_usage_line(self, capsys, levels):
        assert main(["verify", "uprime", "--f", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: uprime levels are integers of at least 2; got --f {levels}\n"

    @pytest.mark.parametrize("levels", ["12,1x", "x", "15,1", "15,12", "1", "4"])
    def test_sk_levels_checked_before_any_work(self, monkeypatch, capsys, levels):
        # a malformed or non-squarefree level is one usage line, and no
        # level runs before it is refused
        def refuse(f, level, window=None):
            raise AssertionError(f"build_sk({f}) ran before the levels were checked")

        monkeypatch.setattr(cli, "build_sk", refuse)
        assert main(["sk", "compare", "--f", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sk compare levels are squarefree integers of at least 2; got --f {levels}\n")

    def test_uprime_non_equivariant_operator_is_a_fail(self, monkeypatch, tmp_path):
        # a generator's map on A(f) replaced by the identity past the
        # commutation certificate, so that U(f)'s induced operator is not
        # the group action: FAIL, exit 1
        real = iwasawa.u_module

        def tampered(af):
            name = g_op_name(af.backend, af.group.generators()[0].residue)
            identity = MapOperator(tuple(range(af.rank)))
            ops = with_map_uncertified(af.operators, name, identity)
            return real(dataclasses.replace(af, operators=ops))

        monkeypatch.setattr(iwasawa, "u_module", tampered)
        out = tmp_path / "r.json"
        assert main(["verify", "uprime", "--f", "12", "--out", str(out)]) == 1
        [check] = json.loads(out.read_text())["checks"]
        assert check["verdict"] == "FAIL"

    @pytest.mark.parametrize(
        "argv",
        [
            ["structure", "--f", "12", "--level", "0"],
            ["structure", "--f", "12", "--level", "-1"],
            ["sign-homology", "--f", "12", "--level", "0"],
            ["tower", "--f", "6", "--level", "0"],
            ["sk", "compare", "--f", "15", "--level", "0"],
            ["structure", "--f", "12", "--nu", "5=2"],
            ["structure", "--f", "12", "--nu", "4=1"],
            ["structure", "--f", "4,6", "--nu", "3=1"],
            ["verify", "thm442", "--f", "15", "--nu", "7=1"],
            ["tower", "--backend", "fq", "--q", "3", "--f", "T^2+T", "--nu", "T+2=1"],
        ],
    )
    def test_nonsense_level_or_nu_exit_2(self, capsys, argv):
        # a level below 1, or a nu for a prime that does not divide the level,
        # is refused before any work, never silently ignored
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, flag, where):
        # a path that cannot be written is a usage error: one line, no report
        path = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        assert main(["verify", "uprime", "--f", "3", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "yin", "--q", "4099", "--f", "T"],
        ["sign-homology", "--backend", "fq", "--q", "1000003", "--f", "T"],
    ])
    def test_field_too_large_refused_before_any_table(self, monkeypatch, capsys, argv):
        def refuse(q):
            raise AssertionError(f"F_{q} tables were built")

        monkeypatch.setattr(arith, "FqTable", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_malformed_polynomial_exit_2(self):
        assert main(["verify", "yin", "--q", "3", "--f", "T^"]) == 2

    def test_nu_parsing(self, tmp_path):
        code, payload = run_json(
            tmp_path, ["structure", "--f", "4", "--nu", "2=-1"]
        )
        assert code == 0
        code, _ = run_json(
            tmp_path,
            ["structure", "--backend", "fq", "--q", "3", "--f", "T^2+T", "--nu", "T+1=-1"],
        )
        assert code == 0

    def test_every_check_carries_route(self, tmp_path):
        _, payload = run_json(tmp_path, ["verify", "thm442", "--f", "3"])
        report = json.loads(payload)
        for check in report["checks"]:
            assert "route" in check or "routes" in check

    def test_manifest_carries_parameters(self, tmp_path):
        _, payload = run_json(tmp_path, ["structure", "--f", "8", "--level", "2"])
        manifest = json.loads(payload)["manifest"]
        assert manifest["parameters"]["f"] == "8"
        assert manifest["parameters"]["level"] == 2
        assert manifest["version"]

    def test_csv_emission(self, tmp_path):
        csv_path = tmp_path / "checks.csv"
        code = main(["verify", "kubert", "--f", "3,5", "--csv", str(csv_path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "name,params,routes,verdict,tables"
        assert len(lines) == 3 and lines[1].startswith("kubert,f=3,")

    def test_levels_report_in_argument_order(self, tmp_path):
        levels = ["9", "8", "5", "4", "3"]
        _, payload = run_json(tmp_path, ["verify", "kubert", "--f", ",".join(levels)])
        checks = json.loads(payload)["checks"]
        assert [c["params"]["f"] for c in checks] == levels
        for f, check in zip(levels, checks):
            _, single = run_json(tmp_path, ["verify", "kubert", "--f", f])
            assert json.loads(single)["checks"] == [check]


class TestExitCodes:
    """0 PASS, 1 FAIL and nothing else, 2 usage, 3 internal error, 4 memory."""

    def raising(self, monkeypatch, exc):
        def run(_args):
            raise exc

        monkeypatch.setattr(cli, "cmd_structure", run)
        return main(["structure", "--f", "12"])

    @pytest.mark.parametrize("exc", [
        ShapeMismatch("mul 2x3 by 2x2"),
        NonCommutingOperators("'a' and 'b' do not commute"),
        PlusMinusNotZero("'plus' * 'minus' is not zero"),
        OrderViolation("the sign generator has a cycle of length 6, which does not divide 2"),
    ])
    def test_bug_class_errors_exit_3(self, monkeypatch, capsys, exc):
        # all four subclass ValueError, which otherwise means usage
        assert self.raising(monkeypatch, exc) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal check failed: {exc}\n"

    def test_a_sign_generator_off_the_sign_order_exits_3(self, monkeypatch, capsys):
        # gamma0 of A(7) replaced by the unit 3, which commutes with every
        # operator and has order 6: the cycle walk refuses it at m = 2
        real = signh.build_af

        def tampered(bk, f, nu=None):
            af = real(bk, f, nu)
            unit = af.operators.maps[distmod.g_op_name(bk, 3)]
            return dataclasses.replace(af, operators=with_operator(af.operators, "gamma0", unit))

        monkeypatch.setattr(signh, "build_af", tampered)
        assert main(["sign-homology", "--f", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal check failed: the sign generator has a cycle "
                                "of length 6, which does not divide 2\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    def test_a_corrupted_relation_at_a_large_level_reports_in_little_memory(self):
        # one doubled relation at f = 5040 (|Xi(f)| = 5,040, 5,928 relations)
        # fails the basis certificate; its diagnosis is one sparse reduction,
        # so it reports exit 3 under a 1 GiB cap on the child, where a dense
        # diagnosis ran out of memory
        script = (
            "import sys\n"
            "from uod import cli, distmod, znf\n"
            "real = distmod.distribution_relations\n"
            "def doubled(af):\n"
            "    rel = real(af)\n"
            "    first = {i: 2 * v for i, v in rel.entries[0].items()}\n"
            "    return znf.SparseMatrix(rel.rows, (first,) + rel.entries[1:])\n"
            "distmod.distribution_relations = doubled\n"
            "sys.exit(cli.main(['verify', 'basis', '--f', '5040']))\n"
        )

        def cap():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, preexec_fn=cap, timeout=120)
        assert run.returncode == 3, run.stderr
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal check failed: certificates:")
        # the 5,040 unit factors of the lattice are counted, not listed
        assert len(lines[0]) < 300, lines[0]

    def test_memory_error_exits_4_with_one_line(self, monkeypatch, capsys):
        assert self.raising(monkeypatch, MemoryError()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: out of memory")

    @pytest.mark.parametrize("argv, message", [
        (["ftate", "--grid", "-1x2"], "uod ftate: error: argument --grid: expected one argument"),
        (["verify", "basis"], "uod verify basis: error: the following arguments are required: --f"),
        (["structure", "--f", "12", "--level", "two"],
         "uod structure: error: argument --level: invalid int value: 'two'"),
        (["tower", "--f", "6", "--backend", "z"],
         "uod tower: error: argument --backend: invalid choice: 'z'"),
        (["nonsense"], "uod: error: argument command: invalid choice: 'nonsense' "),
    ])
    def test_parser_refusals_are_one_error_line(self, capsys, argv, message):
        # argparse's own refusals follow the rule of the others: exit 2 with
        # one error line and no usage text
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("value", [0.5, {1, 2}], ids=["float", "set"])
    def test_a_table_value_of_no_report_type_exits_3(self, monkeypatch, capsys, tmp_path, value):
        # the report writer refuses it with a TypeError: a bug, never FAIL
        real = cli.cmd_ftate

        def tampered(args):
            checks = real(args)
            checks[0]["tables"]["extra"] = value
            return checks

        monkeypatch.setattr(cli, "cmd_ftate", tampered)
        out = tmp_path / "report.json"
        assert main(["ftate", "--r", "1", "--m", "2", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("internal error: TypeError: ")
        assert not out.exists()

    @pytest.mark.parametrize("exc", [KeyError("gamma0"), TypeError("bad operand"), LookupError()])
    def test_unexpected_exception_exits_3(self, monkeypatch, capsys, exc):
        assert self.raising(monkeypatch, exc) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"internal error: {type(exc).__name__}")


# -- the exit-code contract under fuzzing -----------------------------------

_MALFORMED = st.sampled_from(["", "x", "1.5", "3,", ",", "2x", "T^", "-", "0x0", "12,-3", "1e3"])
_SMALL = st.integers(-3, 30).map(str)
_LINEAR = ["T", "T+1", "2T+1", "T^0"]


@st.composite
def cli_argv(draw):
    """A subcommand with flag values drawn from small integers, malformed
    strings and levels in [-1, 2].  Every level stays within 30^2 classes
    (over F_q, q <= 29, a polynomial of degree 2 only where no --level is
    taken), and ftate's rank within 8, so every draw runs in well under a
    second."""
    # a malformed string in about one draw of four
    value = lambda small: draw(st.one_of(small, small, small, _MALFORMED))
    command = draw(st.sampled_from([
        "structure", "sign-homology", "tower", "basis", "lemma411", "thm442",
        "kubert", "u-function", "uprime", "yin", "sk", "ftate",
    ]))
    if command == "ftate":
        argv = ["ftate"]
        if draw(st.booleans()):
            argv += ["--grid", value(st.sampled_from(["1x1", "2x3", "3x2"]))]
        else:
            argv += [f"--r={value(st.integers(-3, 8).map(str))}", f"--m={value(_SMALL)}"]
        if draw(st.booleans()):
            argv.append(f"--window={value(_SMALL)}")
        return argv
    leveled = command in ("structure", "sign-homology", "tower", "sk")
    polynomials = st.sampled_from(_LINEAR if leveled else _LINEAR + ["T^2+T"])
    if command == "yin":
        return ["verify", "yin", f"--q={value(_SMALL)}", f"--f={value(polynomials)}"]
    prefix = {"structure": ["structure"], "sign-homology": ["sign-homology"],
              "tower": ["tower"], "sk": ["sk", "compare"]}.get(command, ["verify", command])
    function_field = command in ("structure", "sign-homology", "tower", "basis", "lemma411",
                                 "thm442") and draw(st.booleans())
    if function_field:
        argv = prefix + ["--backend", "fq", f"--q={value(_SMALL)}", f"--f={value(polynomials)}"]
    else:
        f = value(_SMALL)
        # thm442 puts the direct side at level f^2 when f = 2 mod 4
        assume(command != "thm442" or not (f.isdigit() and int(f) % 4 == 2))
        argv = prefix + [f"--f={f}"]
    if leveled and draw(st.booleans()):
        argv.append(f"--level={value(st.integers(-1, 2).map(str))}")
    if command in ("thm442", "sk") and draw(st.booleans()):
        argv.append(f"--window={value(_SMALL)}")
    return argv


class TestExitCodeFuzz:
    @settings(max_examples=100, deadline=None)
    @given(cli_argv())
    def test_small_and_malformed_flags_exit_0_or_2(self, argv):
        # correct code on small or malformed input passes, is not
        # applicable, or is refused with one line: never FAIL, never a crash
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == ""
            assert re.fullmatch(r"(uod[\w -]*: )?error: [^\n]*\n", err), (argv, err)
        else:
            assert err == ""
            json.loads(out)


# -- the grammar table against argparse --------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# stray words mixed into the draws of cli_argv, most of them syntax the walk
# leaves to argparse
_STRAY = st.sampled_from([
    ["--"], ["-h"], ["--help"], ["--pretty"], ["--pretty=1"], ["--out", "r.json"], ["--csv=c.csv"],
    ["--backend", "fq"], ["--backend", "z"], ["--backend=q"], ["--q", "3"], ["--q=x"],
    ["--level", "-1"], ["--window=-2"], ["--f"], ["--nu", "2=-1"], ["--grid", "2x2"], ["--r=1"],
    ["--lev", "2"], ["--ba=fq"], ["x"],
])
_VALUE = st.sampled_from(["q", "fq", "z", "2", "7", "x", "", "1.5", " 3", "-1"])
_FLAG = st.sampled_from(["--out", "--csv", "--pretty", "--backend", "--q", "--f", "--nu", "--level",
                         "--window", "--r", "--m", "--grid"])


@st.composite
def widened_argv(draw):
    """A cli_argv draw with its flags repeated, abbreviated, split into two
    words, given other values (some that start with "-") or dropped, and
    with flags of any command and stray words inserted among them."""
    argv = draw(cli_argv())
    start = 2 if argv[0] in ("verify", "sk") else 1
    for _ in range(draw(st.integers(0, 3))):
        if len(argv) == start:
            break
        i = draw(st.integers(start, len(argv) - 1))
        name, eq, value = argv[i].partition("=")
        # the value of a flag written as two words is the next word
        pair = not eq and name.startswith("--") and i + 1 < len(argv)
        # "flag" twice: an inserted flag is what most often meets a type or
        # choices check on an argv the walk reads
        edit = draw(st.sampled_from(
            ["repeat", "abbreviate", "split", "value", "drop", "stray", "flag", "flag"]))
        if edit == "repeat" and (eq or pair):
            argv.append(f"{name}={draw(_VALUE)}")
        elif edit == "abbreviate" and name.startswith("--") and len(name) > 3:
            argv[i] = name[:draw(st.integers(3, len(name) - 1))] + eq + value
        elif edit == "split" and eq:
            argv[i:i + 1] = [name, value]
        elif edit == "value" and eq:
            argv[i] = f"{name}={draw(_VALUE)}"
        elif edit == "value" and pair:
            argv[i + 1] = draw(_VALUE)
        elif edit == "drop":
            del argv[i]
        elif edit == "flag":
            name = draw(_FLAG)
            argv[i:i] = [name, draw(_VALUE)] if draw(st.booleans()) else [f"{name}={draw(_VALUE)}"]
        else:
            argv[i:i] = draw(_STRAY)
    return argv


def _typed(namespace):
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def _pool_and_ci_commands():
    """Every op of the benchmark's pools and seed_failures, and every
    command the CI workflow runs through ``python -m uod``."""
    workloads = json.loads((ROOT / "benchmarks" / "workloads.json").read_text())
    pool = [op for workload in workloads["workloads"].values()
            for slot in workload["slots"] for op in slot["ops"]]
    probes = [probe["argv"] for probe in workloads["seed_failures"]]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    smoke = re.findall(r"python -m uod ([^>\n$]+?) >", workflow)
    loop = re.search(r"for cmd in (.*?); do", workflow, re.S).group(1)
    report_format = re.findall(r'"([^"]+)"', loop)
    assert pool and probes and smoke and report_format
    return sorted(set(pool + probes + smoke + report_format))


_HELP = {
    "--help": """\
usage: uod [-h] {structure,sign-homology,verify,sk,ftate,tower} ...

exact universal-ordinary-distribution computations and checks

positional arguments:
  {structure,sign-homology,verify,sk,ftate,tower}
    structure           rank and basis of the distribution module
    sign-homology       both parities of the sign homology
    verify              theorem verification campaigns
    sk                  symbol double complex routes
    ftate               almost-free homology, closed form vs complex
    tower               level towers and stabilization

options:
  -h, --help            show this help message and exit
""",
    "verify --help": """\
usage: uod verify [-h]
                  {kubert,yin,thm442,basis,lemma411,u-function,uprime} ...

positional arguments:
  {kubert,yin,thm442,basis,lemma411,u-function,uprime}

options:
  -h, --help            show this help message and exit
""",
    "verify basis --help": """\
usage: uod verify basis [-h] [--out OUT] [--csv CSV] [--pretty]
                        [--backend {q,fq}] [--q Q] --f F

options:
  -h, --help        show this help message and exit
  --out OUT         write the JSON report to this file
  --csv CSV         write a flat CSV of the checks to this file
  --pretty          human-readable table
  --backend {q,fq}
  --q Q             prime power for fq
  --f F             ideal or comma list of ideals
""",
}

# the namespace argparse built for one command line of each command path
# before the grammar was a table; every one also holds out=None, csv=None
# and pretty=False
_NAMESPACES = {
    "structure --f 12": dict(command="structure", backend="q", q=None, f="12", nu=None,
                             level=1, run="cmd_structure"),
    "sign-homology --f 12": dict(command="sign-homology", backend="q", q=None, f="12",
                                 nu=None, level=1, run="cmd_sign_homology"),
    "verify kubert --f 3": dict(command="verify", verify_what="kubert", f="3",
                                run="cmd_verify_kubert"),
    "verify yin --q 3 --f T": dict(command="verify", verify_what="yin", q=3, f="T",
                                   run="cmd_verify_yin"),
    "verify thm442 --f 15": dict(command="verify", verify_what="thm442", backend="q", q=None,
                                 f="15", nu=None, window=None, run="cmd_verify_thm442"),
    "verify basis --f 12": dict(command="verify", verify_what="basis", backend="q", q=None,
                                f="12", run="cmd_verify_basis"),
    "verify lemma411 --f 12": dict(command="verify", verify_what="lemma411", backend="q",
                                   q=None, f="12", run="cmd_verify_lemma411"),
    "verify u-function --f 12": dict(command="verify", verify_what="u-function", f="12",
                                     run="cmd_verify_ufunction"),
    "verify uprime --f 12": dict(command="verify", verify_what="uprime", f="12",
                                 run="cmd_verify_uprime"),
    "sk compare --f 15": dict(command="sk", sk_what="compare", f="15", level=1, window=None,
                              run="cmd_sk_compare"),
    "ftate --grid 2x2": dict(command="ftate", r=None, m=None, grid="2x2", window=None,
                             run="cmd_ftate"),
    "tower --f 6": dict(command="tower", backend="q", q=None, f="6", nu=None, level=1,
                        run="cmd_tower"),
}


class TestGrammar:
    """``main`` reads a command line off the grammar table (``cli._walk``)
    and hands what the walk declines to argparse's parser of the same
    table, which stays the oracle of what a command line means."""

    @settings(max_examples=1000, deadline=None)
    @given(widened_argv())
    def test_an_accepted_argv_is_parsed_as_argparse_parses_it(self, argv):
        walked = cli._walk(argv)
        if walked is not None:
            assert _typed(walked) == _typed(cli.build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("argv", [
        ["nonsense"],
        ["verify"],
        ["--help"],
        ["verify", "basis", "-h"],
        ["structure", "--f", "12", "extra"],
        ["structure", "--", "--f", "12"],
        ["structure", "--f", "12", "--lev", "2"],
        ["structure", "--f", "12", "--f", "13"],
        ["structure", "--f", "12", "--pretty", "--pretty"],
        ["structure", "--f", "12", "--pretty=1"],
        ["structure", "--f", "-12"],
        ["structure", "--f=-12"],
        ["structure", "--f"],
        ["structure", "--f", "12", "--level", "two"],
        ["tower", "--f", "6", "--backend", "z"],
        ["verify", "basis"],
        ["verify", "yin", "--f", "T"],
    ], ids=" ".join)
    def test_what_the_walk_leaves_to_argparse(self, argv):
        assert cli._walk(argv) is None

    @pytest.mark.parametrize("command", _pool_and_ci_commands())
    def test_pool_and_ci_commands_take_the_walk(self, command):
        argv = command.split()
        walked = cli._walk(argv)
        assert walked is not None
        assert _typed(walked) == _typed(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", list(_NAMESPACES))
    def test_the_defaults_are_argparse_s_before_the_table(self, command):
        expected = dict(out=None, csv=None, pretty=False, **_NAMESPACES[command])
        assert _typed(cli._walk(command.split())) == _typed(types.SimpleNamespace(**expected))

    def test_the_accept_path_imports_no_argparse(self):
        script = (
            "import contextlib, io, sys\n"
            "from uod.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['sk', 'compare', '--f', '13', '--level', '2']),\n"
            "             main(['verify', 'basis', '--f', '12'])]\n"
            "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env)
        assert (run.returncode, run.stdout) == (0, "[0, 0] []\n"), run.stderr

    @pytest.mark.parametrize("command", list(_HELP))
    def test_help_texts(self, monkeypatch, capsys, command):
        # argparse wraps its help at the terminal's width, read from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        assert main(command.split()) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (_HELP[command], "")


class TestRelationCertificate:
    @pytest.mark.parametrize("f", [12, 60])
    def test_verify_uprime_certifies_the_relations_once(self, monkeypatch, f):
        calls = []
        real = distmod._certify_relations

        def spy(af, rel):
            calls.append(af.level)
            return real(af, rel)

        monkeypatch.setattr(distmod, "_certify_relations", spy)
        assert main(["verify", "uprime", "--f", str(f), "--out", os.devnull]) == 0
        assert calls == [f]
