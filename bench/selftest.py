"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Replays every workload in-process (seed 0) and checks that:
  1. a corrupted stdout counts as a failure, for every invocation;
  2. a wrong exit code counts as a failure, for every invocation;
  3. in a traced replay, the children of every span add up to no more
     than the span itself (and the check catches a span list where they do).
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def corruptions(out: str):
    """A changed last digit (or an appended character), and a lost
    trailing newline."""
    digits = list(re.finditer(r"\d", out))
    if digits:
        i = digits[-1].start()
        yield out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
    else:
        yield out + "x"
    yield out[:-1]


def main() -> int:
    problems = []
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for workload in inputs.WORKLOADS:
            d = tmp / workload
            d.mkdir()
            calls = inputs.build(workload, 0, d)
            runner = run.Runner(time.perf_counter())
            results = [(call, *runner.in_process(call.argv)[:2]) for call in calls]
            for call, code, out in results:
                if run.judge(call, code, out) is not None:
                    problems.append(f"{workload}: {call.argv} fails unmodified")
                for bad in corruptions(out):
                    if run.judge(call, code, bad) is None:
                        problems.append(f"{workload}: corrupted stdout of {call.argv} passed")
                if run.judge(call, code + 1, out) is None:
                    problems.append(f"{workload}: wrong exit code of {call.argv} passed")

            # the same through a pass: corrupt every other call, count failures
            flip = iter(range(len(calls)))

            def corrupting(argv):
                code, out, lat = runner.in_process(argv)
                return code, (next(corruptions(out)) if next(flip) % 2 else out), lat

            runner.one_pass(calls, corrupting)
            if len(runner.failures) != len(calls) // 2 or runner.attempted != len(calls):
                problems.append(f"{workload}: {len(runner.failures)} of {runner.attempted} "
                                f"counted as failed, expected {len(calls) // 2}")

            tracer = tracing.Tracer()
            with tracer:
                runner.one_pass(calls, runner.in_process)
            for idx, name, reason in tracing.nesting_violations(tracer.spans):
                problems.append(f"{workload}: span {idx} {name}: {reason}")
            if not tracer.spans:
                problems.append(f"{workload}: traced replay recorded no spans")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    overfull = [["cli.main", 0.0, 1.0, -1], ["designs.load_design", 0.0, 0.6, 0],
                ["designs.is_t_design", 0.5, 1.0, 0]]
    if not tracing.nesting_violations(overfull):
        problems.append("an overfull parent span went unnoticed")

    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
