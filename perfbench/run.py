"""orliczforms benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from its ``src/``
and nothing is installed.  Each workload runs in one worker process
(``worker.py``) whose BLAS/OpenMP thread variables this runner pins to 1.

``--trace 0`` prints the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of a traced
pass.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it (prefixed
``#``) record the machine, the pass times, the report sha1, the empirical
constants against ``reference.json`` and ``failed_frac``.
``--workload all`` runs every workload in turn and ends with a summary.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-accept-2d", "norm-sweep-2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# setup_s is the median of the worker's own set-up and this many fresh
# processes that only set up (import, validate the config, build inputs).
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(argv: list, env: dict, timeout: float) -> dict:
    """Run worker.py, echo its ``#`` lines, return its last-line JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    env = worker_env()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]

    def probe() -> float:
        left = RUN_DEADLINE_S - (time.monotonic() - start)
        return call_worker(argv + ["--setup-only"], env, left)["setup_s"]

    # half the set-up probes run before the timed worker and half after, so
    # the samples span the run's window instead of one moment of it
    samples = [] if trace else [probe() for _ in range(SETUP_PROBES // 2)]
    out = call_worker(argv, env, RUN_DEADLINE_S - (time.monotonic() - start))
    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    if not trace:
        samples += [out["setup_sample_s"]]
        samples += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        print(f"# setup_s samples={[round(s, 4) for s in samples]}")
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    frac = result["failed"] / result["attempted"]
    print(f"# failed_frac={result['failed']}/{result['attempted']}={frac:g} (1)")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="orliczforms benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "orliczforms" / "__init__.py").is_file():
        print(f"error: no orliczforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0

    summary = []
    for name in WORKLOADS:
        result = run_one(name, args.seed, args.seconds, args.trace)
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "1"}
        summary.append((name, result))
    print("# summary")
    for name, result in summary:
        cells = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"# {name:16s} correct={result['correct']}  {cells}")
    return 0 if all(r["correct"] for _, r in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
