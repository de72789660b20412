import json

import pytest

from uod import cli
from uod.chainkit import GammaOrderUnbounded, NonCommutingOperators, PlusMinusNotZero
from uod.cli import main
from uod.znf import ShapeMismatch


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


class TestHarnessContract:
    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_json(tmp_path, ["verify", "kubert", "--f", "3,4,5,15"])
        _, second = run_json(tmp_path, ["verify", "kubert", "--f", "3,4,5,15"])
        assert first == second

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
        ],
    )
    def test_vacuous_levels_exit_2(self, capsys, argv):
        # nothing to check is a usage error, never a PASS
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("levels", ["120,1", "1", "0", "12,-3", "60,x"])
    def test_uprime_levels_checked_before_any_work(self, monkeypatch, capsys, levels):
        def refuse(f, u=None):
            raise AssertionError(f"uprime_compare({f}) ran before the levels were checked")

        monkeypatch.setattr(cli, "uprime_compare", refuse)
        assert main(["verify", "uprime", "--f", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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
        GammaOrderUnbounded("gamma0 has no order up to 64"),
    ])
    def test_bug_class_errors_exit_3(self, monkeypatch, capsys, exc):
        # three of these subclass ValueError, which otherwise means usage
        assert self.raising(monkeypatch, exc) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal check failed: {exc}\n"

    def test_memory_error_exits_4_with_one_line(self, monkeypatch, capsys):
        assert self.raising(monkeypatch, MemoryError()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: out of memory")

    @pytest.mark.parametrize("exc", [KeyError("gamma0"), TypeError("bad operand"), LookupError()])
    def test_unexpected_exception_exits_3(self, monkeypatch, capsys, exc):
        assert self.raising(monkeypatch, exc) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"internal error: {type(exc).__name__}")
