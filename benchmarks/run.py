"""Benchmark of the ``uod`` command line, end to end and per layer.

    python3 benchmarks/run.py --workload direct --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --baseline benchmarks/results/BENCH_seed.json

A run is a closed loop with one client.  It draws campaigns from the
workload's pools in ``workloads.json`` with a generator seeded by
``--seed``; every campaign runs in a fresh child interpreter
(``campaign.py``) that issues one ``uod.cli.main(argv)`` call per op, each
after the previous one returned.  Campaigns start until ``--seconds`` of
measuring are used.  Every report is checked against the benchmark's own
expectations (``oracle.py``) and its SHA-256 against earlier reports of the
same argv from the same source tree.

Times are at reference speed: each is scaled by how fast the host ran a
fixed loop while it was measured (``campaign.speed``), because a
shared host changes speed by up to 1.8x within seconds.

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
it replays the same campaigns with ``tracer.py`` installed in the child and
prints the per-layer metrics.  Either way the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--baseline FILE`` runs everything: ten untraced seeds and one traced run
per workload, every pool op once for the report hashes, and the ops that
failed at the seed commit under the caps; it writes FILE.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "uod"
STATE = HERE / ".state"
BASELINE = HERE / "results" / "BENCH_seed.json"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from tracer import LAYERS, MAXIMA, SMITH_TRANSFORMS  # noqa: E402

# A run never lasts longer than this, whatever the program does.
RUN_LIMIT_S = 170.0
# The per-op time cap is this many times longer under the tracer.
TRACE_CAP_FACTOR = 4
# Set-up is timed in this many empty children besides the campaign children.
SETUP_PROBES = 9
# An untraced run has at least this many campaigns, whatever --seconds says.
MIN_CAMPAIGNS = 3
# A traced run spends this share of --seconds on untraced campaigns and the
# rest on replaying them traced.
TRACE_SPLIT = 2


def load_config() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def campaigns(cfg: dict, workload: str, seed: int):
    """Endless stream of campaigns: one op drawn from every slot, in slot
    order, so that what the program caches for later ops does not change
    between campaigns."""
    rng = random.Random(f"{workload}/{seed}")
    slots = cfg["workloads"][workload]["slots"]
    while True:
        yield [rng.choice(slot["ops"]).split() for slot in slots]


# -- children -------------------------------------------------------------------


def spawn(cfg: dict, ops: list, trace: bool, deadline: float) -> dict | None:
    """Run one campaign child; None if it died or overran its watchdog."""
    cap = cfg["op_cap_s"] * (TRACE_CAP_FACTOR if trace else 1)
    job = json.dumps({"ops": ops, "op_cap_s": cap, "trace": trace})
    env = dict(os.environ)
    env.pop("UOD_THREADS", None)
    # String hashing changes dict layouts: with a random hash seed per child
    # the same campaign's time moved by about 8 percent between children,
    # with a fixed one by about 3.5 percent.
    env["PYTHONHASHSEED"] = "0"
    watchdog = min(cap * len(ops) + 30.0, max(deadline - time.monotonic(), 1.0))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), "--mem-mb", str(cfg["mem_cap_mb"])],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=watchdog)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"campaign killed after {watchdog:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"campaign child exited {proc.returncode}: {err.strip()[-400:]}", file=sys.stderr)
        return None
    res = json.loads(out.strip().splitlines()[-1])
    # Times at reference speed: the child times a fixed loop around and
    # during each op and reports how fast the host ran it.
    for op in res["ops"]:
        op["ref_s"] = op["seconds"] * op["speed"]
    res["setup_s"] = (res["ready"] - t0) * res["ready_speed"]
    res["wall_s"] = sum(op["ref_s"] for op in res["ops"])
    res["cpu_s"] = sum(op["cpu_s"] * op["speed"] for op in res["ops"])
    return res


def setup_probe(cfg: dict, deadline: float) -> float:
    res = spawn(cfg, [], False, deadline)
    if res is None:
        raise SystemExit("set-up probe failed")
    return res["setup_s"]


# -- checking -------------------------------------------------------------------


class Checker:
    """Judges each op: status, exit code, oracle, and report hash stability."""

    def __init__(self, workload: str):
        self.registry_path = STATE / f"hashes-{source_fingerprint()}.json"
        self.known = _read_json(self.registry_path, {})
        self.seed_hashes = _read_json(BASELINE, {}).get("hashes", {}).get(workload, {})
        self.new = {}
        self.attempted = 0
        self.failures = []
        self.changed_vs_seed = set()

    def judge(self, op: dict) -> str | None:
        self.attempted += 1
        argv = " ".join(op["argv"])
        reason = None
        if op["status"] != "ok":
            reason = op["status"]
        else:
            reason = oracle.check(op["argv"], op["report"])
            if op["rc"] != 0:
                reason = f"exit code {op['rc']}: {reason or op['stderr'].strip()[-200:]}"
        if reason is None:
            digest = hashlib.sha256(op["report"].encode()).hexdigest()
            earlier = self.known.get(argv) or self.new.get(argv)
            if earlier and earlier != digest:
                reason = "report differs from an earlier run of the same code"
            self.new.setdefault(argv, digest)
            if self.seed_hashes.get(argv, digest) != digest:
                self.changed_vs_seed.add(argv)
        if reason:
            self.failures.append((argv, reason))
        return reason

    def lost(self, ops: list, why: str):
        for argv in ops:
            self.attempted += 1
            self.failures.append((" ".join(argv), why))

    def save(self):
        merged = dict(self.new)
        merged.update(self.known)
        if merged != self.known:
            STATE.mkdir(exist_ok=True)
            tmp = self.registry_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(merged, sort_keys=True, indent=0))
            os.replace(tmp, self.registry_path)


def _read_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


# -- runs -----------------------------------------------------------------------


def run_campaigns(cfg, checker, stream, seconds, deadline, least=1, trace=False, replay=None):
    """Run campaigns until ``seconds`` are used (at least ``least`` of them),
    or replay the given op lists.  Returns the finished campaign results."""
    done = []
    t_begin = time.monotonic()
    todo = iter(replay) if replay is not None else stream
    for ops in todo:
        now = time.monotonic()
        if now > deadline - 20:
            break
        if replay is None and (len(done) >= least or now - t_begin > seconds):
            typical = statistics.median(c["elapsed"] for c in done) if done else 0.0
            if now - t_begin + typical > seconds:
                break
        res = spawn(cfg, ops, trace, deadline)
        if res is None:
            checker.lost(ops, "campaign child died or overran")
            continue
        res["elapsed"] = time.monotonic() - now
        res["argv_lists"] = ops
        for op in res["ops"]:
            checker.judge(op)
        done.append(res)
    return done


def end_to_end(done: list, setups: list) -> dict:
    lat = [op["ref_s"] for c in done for op in c["ops"]]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in done),
        "cpu_s": statistics.median(c["cpu_s"] for c in done),
        "op_p50_s": statistics.median(lat),
        "op_max_s": statistics.median(max(op["ref_s"] for op in c["ops"]) for c in done),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Per-campaign averages of the traced campaigns' spans and counters."""
    n = len(traced)
    spans, counters = {}, {}
    unique = 0
    for c in traced:
        snap = c["trace"]
        for name, (calls, incl, self_ns) in snap["spans"].items():
            rec = spans.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_ns
        for name, v in snap["counters"].items():
            if name in MAXIMA:
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
        unique += snap["homology_pair_unique"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0] / n

    def incl_s(name):
        return spans.get(name, [0, 0, 0])[1] / n / 1e9

    def total(name):
        return counters.get(name, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    smith_calls = sum(calls("znf." + e) for e in SMITH_TRANSFORMS)
    m["znf.smith_calls"] = smith_calls
    m["znf.smith_s"] = sum(incl_s("znf." + e) for e in SMITH_TRANSFORMS)
    m["znf.smith_cells"] = total("znf.smith_cells")
    m["znf.smith_density"] = ratio(counters.get("znf.smith_nnz", 0), counters.get("znf.smith_cells", 0))
    m["znf.smith_max_dim"] = counters.get("znf.smith_max_dim", 0)
    m["znf.transforms_per_smith"] = ratio(total("znf.smith_transforms"), smith_calls)
    m["znf.smith_max_bits_in"] = counters.get("znf.smith_max_bits_in", 0)
    m["znf.smith_max_bits_out"] = counters.get("znf.smith_max_bits_out", 0)
    m["znf.matmul_calls"] = calls("znf.matmul")
    m["znf.matmul_s"] = incl_s("znf.matmul")
    m["znf.matmul_mults"] = total("znf.matmul_mults")
    m["znf.matrix_new"] = total("znf.matrix_new")
    m["znf.zeros_cells"] = total("znf.zeros_cells")
    m["chainkit.dc_lookups"] = total("chainkit.dc_lookups")
    m["chainkit.homology_pair_calls"] = calls("znf.homology_pair")
    m["chainkit.homology_pair_unique_ratio"] = ratio(unique / n, calls("znf.homology_pair"))
    m["chainkit.build_kt_s"] = incl_s("chainkit.build_kt")
    m["chainkit.companion_s"] = incl_s("chainkit.companion")
    m["chainkit.homology_s"] = incl_s("chainkit.homology")
    m["arith.xi_classes_s"] = incl_s("arith.xi_classes")
    m["arith.fiber_map_s"] = incl_s("arith.fiber_map")
    m["arith.g_action_calls"] = calls("arith.g_action")
    m["arith.factor_calls"] = total("arith.factor_calls")
    m["arith.gf_group_calls"] = calls("arith.gf_group")
    m["arith.gf_group_repeat_ratio"] = ratio(total("arith.gf_group_repeats"), calls("arith.gf_group"))
    m["distmod.build_af_s"] = incl_s("distmod.build_af")
    m["distmod.u_module_s"] = incl_s("distmod.u_module")
    m["distmod.xi0_basis_s"] = incl_s("distmod.xi0_basis")
    m["distmod.module_rank_max"] = counters.get("distmod.module_rank_max", 0)
    m["distmod.lemma411_calls"] = calls("distmod.lemma411_check")
    m["signh.tate_pair_calls"] = calls("signh.tate_pair")
    m["signh.tate_pair_s"] = incl_s("signh.tate_pair")
    m["ftate.via_kt_s"] = incl_s("ftate.ftate_via_kt")
    m["ftate.thm442_lhs_s"] = incl_s("ftate.thm442_lhs")
    m["skcx.build_sk_s"] = incl_s("skcx.build_sk")
    m["skcx.quotients_s"] = incl_s("skcx.sk_quotients_homology")
    m["iwasawa.u_values_s"] = incl_s("iwasawa.u_values")
    m["iwasawa.uprime_lattice_s"] = incl_s("iwasawa.uprime_lattice")
    m["iwasawa.uprime_compare_s"] = incl_s("iwasawa.uprime_compare")
    self_total = 0.0
    for layer in LAYERS:
        s = sum(v[2] for k, v in spans.items() if k.startswith(layer + ".")) / n / 1e9
        m[f"{layer}.self_s"] = s
        self_total += s
    m["cli.report_bytes"] = sum(len(op["report"]) for c in traced for op in c["ops"]) / n
    op_time = sum(op["seconds"] for c in traced for op in c["ops"]) / n
    m["trace.self_cover_ratio"] = ratio(self_total, op_time)
    m["trace.overhead_ratio"] = ratio(sum(c["wall_s"] for c in traced), sum(c["wall_s"] for c in untraced))
    return m


def self_by_command(traced: list) -> dict:
    """Layer self time per op, averaged over the traced ops of each command."""
    sums, counts = {}, {}
    for c in traced:
        for op in c["ops"]:
            cmd = " ".join(op["argv"][:2] if op["argv"][0] in ("verify", "sk") else op["argv"][:1])
            counts[cmd] = counts.get(cmd, 0) + 1
            acc = sums.setdefault(cmd, {})
            for layer, v in op["layer_self_s"].items():
                acc[layer] = acc.get(layer, 0.0) + v
    return {cmd: {k: v / counts[cmd] for k, v in sorted(acc.items())} for cmd, acc in sums.items()}


def run(cfg: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    checker = Checker(workload)
    stream = campaigns(cfg, workload, seed)
    setup_probe(cfg, deadline)  # compiles the bytecode cache; not counted
    if not trace:
        setups = [setup_probe(cfg, deadline) for _ in range(SETUP_PROBES)]
        done = run_campaigns(cfg, checker, stream, seconds, deadline, MIN_CAMPAIGNS)
        setups += [c["setup_s"] for c in done]
        metrics = end_to_end(done, setups) if done else {}
    else:
        plain = run_campaigns(cfg, checker, stream, seconds / TRACE_SPLIT, deadline, 2)
        traced = run_campaigns(cfg, checker, None, seconds, deadline, trace=True,
                               replay=[c["argv_lists"] for c in plain])
        complete = traced and len(traced) == len(plain)
        metrics, by_command = {}, {}
        if complete:  # a lost replay was already counted as failed ops
            for a, b in zip(plain, traced):
                for x, y in zip(a["ops"], b["ops"]):
                    if x["report"] != y["report"]:
                        checker.failures.append((" ".join(x["argv"]), "traced report differs from untraced"))
            metrics = per_layer(traced, plain)
            by_command = self_by_command(traced)
        done = plain + traced
    checker.save()
    metrics["fail_ratio"] = len(checker.failures) / max(checker.attempted, 1)
    result = {"checker": checker, "campaigns": done, "metrics": metrics}
    if trace:
        result["self_by_command"] = by_command
    return result


def units(bench: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def print_run(result: dict, bench: dict, trace: bool):
    checker = result["checker"]
    for c in result["campaigns"]:
        print(f"campaign: wall {c['wall_s']:.3f} s, cpu {c['cpu_s']:.3f} s, "
              f"set-up {c['setup_s']:.3f} s, {len(c['ops'])} ops")
        for op in c["ops"]:
            print(f"  {op['ref_s']:9.4f} s  (took {op['seconds']:.4f} s at speed {op['speed']:.2f})"
                  f"  {' '.join(op['argv'])}")
    for argv, reason in checker.failures:
        print(f"FAILED  {argv}: {reason}")
    if checker.changed_vs_seed:
        print(f"{len(checker.changed_vs_seed)} op report(s) differ from the seed-commit "
              f"hashes (reported, not failed): {sorted(checker.changed_vs_seed)}")
    for cmd, layers in result.get("self_by_command", {}).items():
        print(f"self time per {cmd} op: " + ", ".join(f"{k} {v:.4f} s" for k, v in layers.items()))
    metrics = result["metrics"]
    printed = dict(units(bench, trace), fail_ratio=units(bench, True)["fail_ratio"])
    for name, unit in printed.items():
        if name in metrics:
            print(f"metric {name} {metrics[name]:.6g} {unit}")


def result_line(result: dict, bench: dict, trace: bool) -> dict:
    checker = result["checker"]
    unit_of = units(bench, trace)
    metrics = result["metrics"]
    failed = len(checker.failures)
    return {
        "correct": failed == 0 and set(metrics) >= set(unit_of),
        "attempted": max(checker.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of[k]} for k in unit_of if k in metrics},
    }


# -- baseline -------------------------------------------------------------------


BASELINE_SEEDS = 10


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run exactly as a caller of the command sees it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(cfg: dict, argv: list) -> dict:
    """Run one op alone under the caps, as the seed-failure table records it."""
    checker = Checker("probe")
    done = run_campaigns(cfg, checker, None, 0, time.monotonic() + cfg["op_cap_s"] + 60,
                         replay=[[argv]])
    entry = {"argv": " ".join(argv),
             "outcome": checker.failures[0][1] if checker.failures else "passed"}
    if done:
        entry.update(seconds=round(done[0]["ops"][0]["seconds"], 2),
                     peak_rss_mb=round(done[0]["peak_rss_mb"], 1))
    return entry


def baseline(cfg: dict, bench: dict, out: Path):
    seconds = bench["run_seconds"]
    doc = {"fingerprint": source_fingerprint(), "run_seconds": seconds,
           "workloads": {}, "hashes": {}, "seed_failures": []}
    for w in bench["workloads"]:
        name = w["name"]
        runs = [invoke(name, s, seconds, 0) for s in range(1, BASELINE_SEEDS + 1)]
        table = {m: quartiles([r["metrics"][m]["value"] for r in runs])
                 for m in units(bench, False)}
        traced = run(cfg, name, 1, seconds, True)
        doc["workloads"][name] = {
            "runs": BASELINE_SEEDS,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": table,
            "per_layer": result_line(traced, bench, True)["metrics"],
            "self_s_per_op_by_command": traced["self_by_command"],
        }
        checker = Checker(name)
        pool = sorted({op for slot in cfg["workloads"][name]["slots"] for op in slot["ops"]})
        chunks = [[op.split() for op in pool[i:i + 8]] for i in range(0, len(pool), 8)]
        run_campaigns(cfg, checker, None, 0, time.monotonic() + 3600, replay=chunks)
        doc["hashes"][name] = dict(sorted(checker.new.items()))
        doc["workloads"][name]["pool_failures"] = checker.failures
        print(f"{name}: {json.dumps(doc['workloads'][name]['end_to_end'])}", flush=True)
    for item in cfg["seed_failures"]:
        doc["seed_failures"].append(dict(probe(cfg, item["argv"].split()), workload=item["workload"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="run everything and write this file")
    args = parser.parse_args()

    if not (SRC / "cli.py").is_file():
        print(f"error: {SRC} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    cfg = load_config()
    bench = _read_json(ROOT / "BENCHMARK.json", None)
    if bench is None:
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    if args.baseline:
        baseline(cfg, bench, args.baseline)
        return 0
    if args.workload not in cfg["workloads"]:
        parser.error(f"--workload must be one of {sorted(cfg['workloads'])}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = bool(args.trace)
    result = run(cfg, args.workload, args.seed, seconds, trace)
    print_run(result, bench, trace)
    print(json.dumps(result_line(result, bench, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
