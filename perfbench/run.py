"""Benchmark one stabcert workload: end-to-end metrics, or per-layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interactive_n6 --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh worker process with the BLAS libraries held to
one thread.  With ``--trace 0`` the worker's set-up is also repeated in
separate processes and ``setup_s`` is the median.  Every metric is printed
with its unit, then the environment record, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every run passed its output check.
Only the standard library is used here, so a missing package shows up as a
failed worker rather than as an import error in the launcher.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabcert" / "__init__.py"

# Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3
# Every process of one invocation must have ended by then.
DEADLINE_S = 175.0

_ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    """A worker process exited without printing a result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(_ONE_THREAD)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_worker(extra: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its last JSON line."""
    cmd = [sys.executable, "-m", "perfbench.worker", *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("no time left for another worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=_worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"worker exited {proc.returncode} without a result") from exc
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"stabcert sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            _run_worker(common + ["--seconds", "0", "--setup-only"], deadline)[
                "setup_s"
            ]
            for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0)
        ]
        result = _run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps({**result["info"], "setup_samples_s": setups}))
    print("env " + json.dumps(result["env"]))
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
