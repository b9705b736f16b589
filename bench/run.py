"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload cli-cold|scale-1e5 --seed N \\
        --seconds S --trace 0|1

The runner first draws the inputs from the seed and computes the
references for the output checks (the workload's ``prepare``), once, in
its own process, which never imports the package.  The workload then
runs in a fresh child process (``worker.py``) that loads them, builds
the program's inputs, warms up, and runs a closed loop with one client
for S seconds.  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` the loop runs untraced for
S/2 seconds and traced for S/2, and the last line holds the per-layer
metrics.  ``setup_s`` is the median over three fresh processes of the
time from spawning the process to its first timed op, less the time
the process spent on the benchmark's own work (loading the prepared
data, checking the warm-up outputs).  The line before
the result records the machine, the load and the launcher.  Both are
also written to ``bench/out/``, with the spans of the last traced run.

Exits 2 without a result when the package sources or the golden files
are missing, and 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import BENCH, GOLDEN_VERIFY, LAUNCHER, ROOT, WORKLOADS, child_env

SETUP_RUNS = 3
# All workers of one run share this budget, so a run ends within 180 s.
RUN_TIMEOUT_S = 170
PACKAGE = ROOT / "src" / "maxplusprob"
UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "%",
}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args) -> dict:
    cli_pyc = importlib.util.cache_from_source(str(PACKAGE / "cli.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu_model(),
        "launcher": f"PYTHONPATH=src {sys.executable} -c '{LAUNCHER}'",
        "pyc_warm_at_start": os.path.exists(cli_pyc),
        "load_before": os.getloadavg(),
    }


def spawn_worker(args, workdir: Path, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its result and its set-up time in seconds."""
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready_ns"] - spawned - result["harness_ns"]) / 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description="maxplusprob benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    missing = [p for p in (PACKAGE / "__init__.py", GOLDEN_VERIFY) if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    (BENCH / "out").mkdir(exist_ok=True)
    record = machine_record(args)
    setups = []
    warmup_failed = 0
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH / "out"))
    try:
        WORKLOADS[args.workload].prepare(args.seed, workdir)
        if args.trace == 0:
            for _ in range(SETUP_RUNS - 1):
                result, seconds = spawn_worker(args, workdir, True, deadline)
                setups.append(seconds)
                warmup_failed += result["warmup_failed"]
        result, seconds = spawn_worker(args, workdir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(seconds)
    warmup_failed += result["warmup_failed"]
    record["load_after"] = os.getloadavg()
    record["setup_runs_s"] = setups
    record["ops_by_kind"] = result["ops_by_kind"]
    record["warmup_failed"] = warmup_failed

    metrics = dict(result["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups)
    line = {
        "correct": result["failed"] == 0 and warmup_failed == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    out = BENCH / "out" / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": line}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
