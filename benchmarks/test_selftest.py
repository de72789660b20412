"""Self-tests of the benchmark: ``python -m pytest benchmarks -q``.

They check that tracing does not change what the program prints, that the
tracer reaches calls made through re-imported names, that the oracle
rejects wrong answers, and that every metric the benchmark prints is
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import oracle

SAMPLE = [
    "structure --f 12",
    "verify kubert --f 12,6",
    "verify yin --q 3 --f T^4+2",
    "ftate --r 2 --m 3",
    "verify thm442 --f 15",
    "sk compare --f 15",
    "verify lemma411 --f 36",
    "verify u-function --f 12",
    "verify uprime --f 12",
]


def _campaign(ops, trace):
    res = run.spawn(run.load_config(), [op.split() for op in ops], trace, time.monotonic() + 120)
    assert res is not None
    return res


def test_traced_and_untraced_reports_are_byte_identical():
    plain = _campaign(SAMPLE, False)
    traced = _campaign(SAMPLE, True)
    for a, b in zip(plain["ops"], traced["ops"]):
        assert a["status"] == b["status"] == "ok"
        assert a["report"] == b["report"], a["argv"]
        assert oracle.check(a["argv"], a["report"]) is None, a["argv"]


def test_structure_12_runs_three_reductions_seen_through_distmod():
    spans = _campaign(["structure --f 12"], True)["trace"]["spans"]
    smith = {k: v[0] for k, v in spans.items()
             if k.split(".", 1)[1] in run.SMITH_TRANSFORMS}
    # distmod calls these through its own `from .znf import ...` names
    assert smith == {"znf.cokernel": 1, "znf.image_basis": 1, "znf.snf": 1}


def test_layer_self_times_cover_the_op():
    res = _campaign(["sk compare --f 15", "verify lemma411 --f 72"], True)
    for op in res["ops"]:
        covered = sum(op["layer_self_s"].values())
        assert 0.9 * op["seconds"] <= covered <= op["seconds"]


def test_double_complex_work_is_charged_to_chainkit_and_znf():
    res = _campaign(["sk compare --f 15"], True)
    spans, counters = res["trace"]["spans"], res["trace"]["counters"]
    lookups = sum(spans[f"chainkit.DoubleComplex.{m}"][0] for m in ("horizontal", "vertical"))
    assert lookups == counters["chainkit.dc_lookups"] > 0
    assert spans["chainkit.DoubleComplex.__init__"][0] > 0
    assert spans["znf.IntMatrix.zeros"][0] > 0
    # skcx only assembles the complexes; validating them and the zero blocks
    # of the lookups belong to chainkit and znf
    layers = res["ops"][0]["layer_self_s"]
    assert layers["skcx"] < layers["chainkit"] < layers["znf"]


def test_oracle_rejects_a_wrong_rank():
    res = _campaign(["verify kubert --f 12"], False)
    report = json.loads(res["ops"][0]["report"])
    report["checks"][0]["tables"]["even"]["torsion"] = [2]
    argv = ["verify", "kubert", "--f", "12"]
    assert oracle.check(argv, json.dumps(report)) is not None
    report["checks"][0]["tables"]["even"]["torsion"] = [2, 2]
    report["checks"][0]["verdict"] = "FAIL"
    assert oracle.check(argv, json.dumps(report)) is not None


def test_oracle_counts_polynomial_primes():
    assert oracle.distinct_prime_factors(oracle.parse_poly("T^4+2", 3), 3) == 3
    assert oracle.distinct_prime_factors(oracle.parse_poly("T^5+2*T+1", 3), 3) == 1
    assert oracle.distinct_prime_factors(oracle.parse_poly("T^4+2*T^2+1", 3), 3) == 1


def _printed(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "lattice", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    names = [line.split()[1] for line in lines if line.startswith("metric ")]
    return names, json.loads(lines[-1])


def test_every_printed_metric_is_declared():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names, result = _printed(trace)
        assert set(names) <= declared
        assert set(result["metrics"]) == {m["name"] for m in bench[key]}
        assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program():
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "benchmarks", ignore=shutil.ignore_patterns(".state"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "direct", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
