"""Digest of every benchmark call's exit code, stdout and stderr.

    python3 tests/replay_digest.py

Run from anywhere; it drives the checkout it lives in.  For seeds 1 and 3
of every workload in bench/inputs.py it writes the inputs into a fresh
temporary directory, runs each call as `python -m tightrel.cli ...` in a
new process (src on PYTHONPATH, as the benchmark does), and prints one
sha256 per workload and seed over the exit code, stdout and stderr of its
calls in order, with the temporary directory's path replaced by a fixed
token.  Two checkouts that print the same lines answer every call byte for
byte alike.  tests/replay_digest.txt pins the lines, and CI diffs the
output against it:

    python3 tests/replay_digest.py | diff tests/replay_digest.txt -

Not a test module: pytest does not collect it.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

SEEDS = (1, 3)
TOKEN = "<tmp>"


def digest(workload: str, seed: int, env) -> tuple[int, str]:
    """The call count and the sha256 of one workload at one seed."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        calls = inputs.build(workload, seed, Path(tmp))
        for call in calls:
            proc = subprocess.run([sys.executable, "-m", "tightrel.cli", *call.argv], cwd=ROOT,
                                  env=env, capture_output=True, text=True)
            record = [proc.returncode, proc.stdout.replace(tmp, TOKEN),
                      proc.stderr.replace(tmp, TOKEN)]
            h.update(json.dumps(record).encode() + b"\n")
    return len(calls), h.hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    total = 0
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            count, hexdigest = digest(workload, seed, env)
            total += count
            print(f"{workload} seed={seed} calls={count} sha256={hexdigest}", flush=True)
    print(f"calls={total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
