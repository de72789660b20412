"""One campaign in a fresh interpreter: the child process of ``run.py``.

Usage (from the root of a checkout, job on stdin):

    python3 benchmarks/campaign.py --mem-mb 2048 < job.json

The job is ``{"ops": [[argv...], ...], "op_cap_s": 30, "trace": false}``.
The child caps its own address space, imports ``uod`` from ``src/``, stamps
the moment the CLI is ready, then issues one ``uod.cli.main(argv)`` call per
op, each after the previous one returned (a closed loop with one client).
Each op runs under a wall-clock cap.  Its report is captured from stdout and
returned with its exit code, latency and the host's speed while it ran;
checking the reports is the parent's job, so that checking is not timed.
The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpTimeout(BaseException):
    """Raised in the op when its cap expires; a BaseException so that the
    CLI's own error handling cannot swallow it."""


def _on_alarm(_signum, _frame):
    raise OpTimeout()


# The calibration loop's fastest time on the host where the baseline was
# recorded (2 shared vCPUs, in its fast phase), so that speeds there are near 1.
REFERENCE_LOOP_S = 0.00175
# While an op runs untraced, the loop is also timed after every this much
# CPU time, so that a long op's speed follows the host's switches.
SAMPLE_EVERY_S = 0.05


def _loop_s() -> float:
    t0 = time.perf_counter()
    seen = {}
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 1000003
        seen[x & 1023] = seen.get(x & 1023, 0) + 1
    return time.perf_counter() - t0


def speed() -> float:
    """The host's speed relative to the baseline host: the reference time of
    a fixed loop of integer and dict work over its fastest of three timings.

    A shared host runs this loop at two speeds 1.8x apart, switching every
    few seconds, and ops slow down with it.  An op's time multiplied by the
    speed around it moved 4 to 5 times less between runs than the time alone.
    """
    return REFERENCE_LOOP_S / min(_loop_s() for _ in range(3))


class Speedometer:
    """Samples the host's speed from a CPU-time timer while an op runs."""

    def __init__(self, sampling: bool):
        self.sampling = sampling
        if sampling:
            signal.signal(signal.SIGVTALRM, self._sample)

    def start(self):
        self.speeds, self.wall, self.cpu = [], 0.0, 0.0
        if self.sampling:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        """Speeds sampled during the op, and the wall and CPU time they took."""
        if self.sampling:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self.speeds, self.wall, self.cpu

    def _sample(self, _signum, _frame):
        c0, t0 = time.process_time(), time.perf_counter()
        self.speeds.append(REFERENCE_LOOP_S / _loop_s())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0


def run_ops(main, ops, cap_s, tracer=None):
    results = []
    signal.signal(signal.SIGALRM, _on_alarm)
    # Under the tracer the samples would land in the spans of the op.
    meter = Speedometer(sampling=tracer is None)
    speed_before = speed()
    before = tracer.layer_self_ns() if tracer is not None else None
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        status, rc = "ok", None
        meter.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except OpTimeout:
            status = "timeout"
        except MemoryError:
            status = "memory"
        except Exception as exc:  # an op that raises is a failed op, not a dead campaign
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sampled, sample_wall, sample_cpu = meter.stop()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        speed_after = speed()
        speeds = [speed_before, *sampled, speed_after]
        layer_s = None
        if tracer is not None:
            after = tracer.layer_self_ns()
            layer_s = {k: (v - before[k]) / 1e9 for k, v in after.items() if v != before[k]}
            before = after
        results.append({
            "argv": list(argv),
            "status": status,
            "rc": rc,
            "seconds": t1 - t0 - sample_wall,
            "cpu_s": cpu1 - cpu0 - sample_cpu,
            "speed": sum(speeds) / len(speeds),
            "report": out.getvalue(),
            "stderr": err.getvalue()[-500:],
            "layer_self_s": layer_s,
        })
        speed_before = speed_after
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mem-mb", type=int, required=True)
    args = parser.parse_args()
    cap = args.mem_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import uod
    import uod.cli

    ready = time.monotonic()
    ready_speed = speed()

    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        import tracer as tracing  # next to this script, so on sys.path

        modules = [uod] + [m for name, m in sorted(sys.modules.items())
                           if name.startswith("uod.")]
        tracer = tracing.install(modules)

    results = run_ops(uod.cli.main, job["ops"], job["op_cap_s"], tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "ready": ready,
        "ready_speed": ready_speed,
        "ops": results,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
