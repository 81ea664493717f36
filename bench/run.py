"""Benchmark harness for the tightrel CLI (stdlib only).

    python3 bench/run.py --workload certify-witt --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  With --trace 0 the harness drives
the CLI as a user does: a closed loop with one client, one
`python -m tightrel.cli ...` subprocess at a time (src on PYTHONPATH),
cycling through the workload's invocations for about --seconds.
Every output is checked.  With --trace 1 it replays the same invocations
in-process through tightrel.cli.main, alternating untraced and traced
passes, and reports per-layer spans and counts.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  A line starting with "# meta" before it records the
machine, and bench/out/ keeps the full result (and the spans, when traced).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = BENCH.parent
OUT = BENCH / "out"
IMPORT_REPS = 7
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_EVERY_S = 3.0
# On a shared virtual machine the host's speed can drift by 10-40% over
# minutes (seen on a 2-vCPU VM), alike for every process on it, which
# would swamp the figures of runs made minutes apart.  Before
# each call the harness times a fixed pure-Python loop twice, and end-to-end
# times are reported in reference-seconds: seconds times REF_NOMINAL_S
# over the run's median loop time.  REF_NOMINAL_S is that median on the
# 2-vCPU machine the benchmark was defined on, so reference-seconds read
# as seconds there.  Raw seconds go to bench/out/.
REF_ITERATIONS = 50_000
REF_NOMINAL_S = 0.0043
VERB_METRICS = {
    "check-relative": "check_relative_s",
    "verify": "verify_s",
    "lambda-seq": "lambda_seq_s",
    "scan-3": "scan3_s",
    "scan-4": "scan4_s",
}


def judge(call, code: int, out: str):
    """None when the invocation returned what its construction says, else
    the reason it counts as failed."""
    if code != call.code:
        return f"exit code {code}, expected {call.code}"
    return call.check(out)


class Runner:
    """Executes calls, as subprocesses or in-process, and keeps every
    failure so that the run reports attempted and failed counts."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failures = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def subprocess(self, argv):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tightrel.cli", *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            return -1, "", time.perf_counter() - t0
        return proc.returncode, proc.stdout, time.perf_counter() - t0

    def in_process(self, argv):
        import tightrel.cli

        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tightrel.cli.main(argv)
        return code, out.getvalue(), time.perf_counter() - t0

    def attempt(self, call, execute) -> float:
        """Run one call, judge its result, and return its latency."""
        code, out, latency = execute(call.argv)
        self.attempted += 1
        reason = judge(call, code, out)
        if reason is not None:
            self.failures.append({"argv": call.argv, "reason": reason})
        return latency

    def one_pass(self, calls, execute) -> float:
        """Run every call once; returns the wall time of the pass."""
        t0 = time.perf_counter()
        for call in calls:
            self.attempt(call, execute)
        return time.perf_counter() - t0


class Setup:
    """Generates the workload's inputs; every generation is timed, and
    all but the first (whose files the run uses) are deleted again."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.times = []
        self.calls = self._generate()

    def _generate(self):
        d = self.tmp / f"inputs{len(self.times)}"
        d.mkdir()
        t0 = time.perf_counter()
        calls = inputs.build(self.workload, self.seed, d)
        self.times.append(time.perf_counter() - t0)
        return calls

    def again(self) -> None:
        self._generate()
        shutil.rmtree(self.tmp / f"inputs{len(self.times) - 1}")


def reference_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


def measure_end_to_end(runner: Runner, setup: Setup, seconds: float):
    """Cycle through the calls, one subprocess at a time, for `seconds`
    (at least one whole pass), and regenerate the inputs at most every
    SETUP_EVERY_S, so that set-up time is sampled across the run too.

    Each invocation is taken at its mean latency over its repetitions.
    wall_s and the per-verb totals sum these over the workload (the
    expected time of one pass); cmd_p50_s and cmd_p90_s are quantiles of
    them, one per distinct invocation.  All are returned in
    reference-seconds."""
    calls = setup.calls
    runner.subprocess(["--help"])  # compile bytecode before timing
    samples = [[] for _ in calls]
    refs = []
    t0 = last_setup = time.perf_counter()
    i = 0
    while i < len(calls) or time.perf_counter() - t0 < seconds:
        if runner.remaining() < 10:
            break
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            last_setup = time.perf_counter()
            setup.again()
        refs += [reference_loop(), reference_loop()]
        samples[i % len(calls)].append(runner.attempt(calls[i % len(calls)], runner.subprocess))
        i += 1
    typical = [statistics.fmean(lats) for lats in samples]
    metrics = {
        "wall_s": sum(typical),
        "cmd_p50_s": statistics.median(typical),
        "cmd_p90_s": statistics.quantiles(typical, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup.times),
    }
    for verb, name in VERB_METRICS.items():
        metrics[name] = sum(m for call, m in zip(calls, typical) if call.verb == verb)
    ref_s = statistics.median(refs)
    info = {"passes": round(i / len(calls), 2), "invocations": len(calls),
            "samples": i, "setup_samples": len(setup.times), "ref_s": ref_s,
            "raw_s": dict(metrics)}
    return {name: value * REF_NOMINAL_S / ref_s for name, value in metrics.items()}, info


def import_seconds(runner: Runner) -> float:
    """Median fresh `import tightrel` minus median bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, sink in (("pass", bare), ("import tightrel", full)):
            t0 = time.perf_counter()
            # captured output: with a timeout and no pipes, subprocess waits by
            # polling with doubling sleeps, which rounds the time up
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=runner.env,
                           check=True, capture_output=True, timeout=60)
            sink.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def serial_scans(calls) -> dict:
    """The library scans behind the workload's scan calls, with default
    arguments (a single process), timed once each."""
    from tightrel import scan_relative3, scan_relative4

    totals = {"scan-3": 0.0, "scan-4": 0.0}
    fns = {"scan-3": scan_relative3, "scan-4": scan_relative4}
    for call in calls:
        if call.verb in fns:
            max_n = int(call.argv[call.argv.index("--max-n") + 1])
            t0 = time.perf_counter()
            fns[call.verb](max_n)
            totals[call.verb] += time.perf_counter() - t0
    return totals


def measure_layers(runner: Runner, calls, seconds: float):
    """Replay the calls in-process in pairs of one untraced and one traced
    pass (alternating which goes first) for `seconds`; per-layer figures
    are medians over the traced passes."""
    sys.path.insert(0, str(ROOT / "src"))
    import tightrel.cli  # noqa: F401

    t0 = time.perf_counter()
    metrics = {"cli.import_s": import_seconds(runner)}
    serial = serial_scans(calls)
    metrics["feasibility.scan_relative3.serial_s"] = serial["scan-3"]
    metrics["feasibility.scan_relative4.serial_s"] = serial["scan-4"]

    plain, traced, layers, counts, spans = [], [], [], [], []
    violations = 0
    tracer = tracing.Tracer()
    while True:
        for kind in ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain"):
            if kind == "plain":
                plain.append(runner.one_pass(calls, runner.in_process))
                continue
            tracer.reset()
            with tracer:
                traced.append(runner.one_pass(calls, runner.in_process))
            layers.append(tracing.layer_totals(tracer.spans))
            counts.append(tracer.counts)
            violations += len(tracing.nesting_violations(tracer.spans))
            spans.append(tracer.spans)
        pair = statistics.median(a + b for a, b in zip(plain, traced))
        elapsed = time.perf_counter() - t0
        if elapsed + pair > seconds or pair > runner.remaining() - 10:
            break
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = statistics.median_low(p[name]["calls"] for p in layers)
        for field in ("total_s", "self_s"):
            metrics[f"{name}.{field}"] = statistics.median(p[name][field] for p in layers)
    for name in tracing.COUNTS:
        metrics[name] = statistics.median_low(c[name] for c in counts)
    oracle = "hamming.relative_design_oracle"
    metrics["hamming.oracle.subsets_per_s"] = statistics.median(
        c["hamming.oracle.subsets"] / p[oracle]["total_s"] for c, p in zip(counts, layers)
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"passes": len(traced), "untraced_wall_s": plain, "traced_wall_s": traced,
            "span_nesting_violations": violations}
    return metrics, info, spans


def metadata(args) -> dict:
    from importlib import metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    # the checkout need not be a git repository
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
        commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "commit": commit, "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # on SIGTERM, unwind: subprocess.run kills and reaps its child, and the
    # temporary inputs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "tightrel" / "cli.py").is_file():
        print(f"error: no tightrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    meta = metadata(args)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    runner = Runner(started)
    try:
        setup = Setup(args.workload, args.seed, tmp)
        if args.trace:
            metrics, info, spans = measure_layers(runner, setup.calls, args.seconds)
        else:
            metrics, info = measure_end_to_end(runner, setup, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            spans = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 2
    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and not info.get("span_nesting_violations"),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    info.update(calls_per_pass=len(setup.calls),
                ops_failed_frac=failed / runner.attempted, failures=runner.failures[:20])
    record = {"meta": meta, "info": info, "result": result}
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(spans) + "\n")
    for failure in runner.failures[:5]:
        print(f"# failed: {failure}")
    print("# meta " + json.dumps(meta))
    print("# info " + json.dumps({k: v for k, v in info.items() if k != "failures"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
