"""One workload process: set up, warm up, then run the closed loop.

Usage: python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
       --workdir DIR [--setup-only]

DIR holds what the workload's ``prepare`` wrote.  Prints one JSON line.
``ready_ns`` is the monotonic clock when set-up ended, so the parent can
time set-up from the moment it spawned this process; ``harness_ns`` is
the part of set-up the benchmark spent on its own work (loading the
prepared data and checking the warm-up outputs), which the parent leaves
out.  With ``--setup-only`` the process exits right there; otherwise it
runs the loop and adds the loop's figures.  ``run.py`` is the entry
point that drives this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import (
    BENCH, GRID_PAIRS, ROOT, VERIFY_RANDOM_PAIRS, WORKLOADS, CliCold, child_env
)

IMPORT_PROBE_ROUNDS = 5
IMPORT_PROBES = {
    "interpreter": "pass",
    "numpy": "import numpy",
    "package": "import maxplusprob",
}


class CheckCannotFail(Exception):
    """A check accepted a deliberately corrupted output."""


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def passes(op, plain) -> bool:
    """Whether plain output data passes the op's check; a check that raises fails."""
    try:
        return bool(op.check(plain))
    except Exception:  # a malformed output is a wrong output
        return False


def verdict(op, out) -> bool:
    try:
        plain = op.extract(out)
    except Exception:
        return False
    return passes(op, plain)


def warm_up(workload) -> int:
    """Run one op of each kind untimed; returns how many gave a wrong output.

    Each output is also corrupted once, and the check must reject the copy.
    Everything but the ops themselves is timed as the workload's harness.
    """
    wrong = 0
    with workload.harness:
        ops = workload.warmup()
    for op in ops:
        try:
            out = op.run()
        except Exception:
            wrong += 1
            continue
        with workload.harness:
            try:
                plain = op.extract(out)
            except Exception:
                wrong += 1
                continue
            wrong += not passes(op, plain)
            if passes(op, checks.corrupt(plain)):
                raise CheckCannotFail(f"the {op.kind} check accepted a corrupted output")
    return wrong


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """Run the schedule for ``seconds`` of wall time, one op at a time.

    Checking happens between ops, outside the timed interval.
    """
    latencies: list[int] = []
    kinds: list[str] = []
    keys: list[str] = []
    failed = 0
    ops = workload.schedule()
    deadline = time.monotonic_ns() + int(seconds * 1e9)
    while time.monotonic_ns() < deadline:
        op = next(ops)
        t0 = time.monotonic_ns()
        span = tracer.begin_op() if tracer else None
        try:
            out = op.run()
            ok = True
        except Exception:
            ok = False
        if tracer:
            tracer.close(span)
        t1 = time.monotonic_ns()
        ok = ok and verdict(op, out)
        out = None
        latencies.append(t1 - t0)
        kinds.append(op.kind)
        keys.append(op.key)
        failed += not ok
    return {"latencies": latencies, "kinds": kinds, "keys": keys, "failed": failed}


def best_latencies_ms(loop: dict, block: int) -> list[float]:
    """Each op of the loop's complete schedule blocks, valued at the fastest
    latency any op with its key reached in the loop.

    Ops with one key do the same work, so their fastest run is the cost of
    that work; slower runs add the waits of a shared host, which comes and
    goes in phases of seconds to minutes (see NOTES.md).  A block holds the
    workload's op mix in fixed shares, so the values keep the mix.
    """
    best: dict[str, int] = {}
    for key, ns in zip(loop["keys"], loop["latencies"]):
        best[key] = min(ns, best.get(key, ns))
    whole = len(loop["keys"]) // block * block or len(loop["keys"])
    return [best[key] / 1e6 for key in loop["keys"][:whole]]


def ops_per_s(loop: dict, block: int) -> float:
    """Throughput of the op mix at each key's fastest latency."""
    values = best_latencies_ms(loop, block)
    return len(values) * 1e3 / sum(values)


def peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux.  For CLI ops the program is the children.
    who = resource.RUSAGE_CHILDREN if workload.name == CliCold.name else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(loop: dict, workload) -> dict:
    values = best_latencies_ms(loop, workload.BLOCK)
    attempted = len(loop["latencies"])
    return {
        "ops_per_s": ops_per_s(loop, workload.BLOCK),
        "op_p50_ms": percentile(values, 0.5),
        "op_p90_ms": percentile(values, 0.9),
        "peak_rss_mb": peak_rss_mb(workload),
        "success_rate": 100.0 * (attempted - loop["failed"]) / attempted,
    }


def import_times() -> dict:
    """Medians of fresh interpreter runs, differenced into three layers (ms)."""
    env = child_env()
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_PROBES}
    for _ in range(IMPORT_PROBE_ROUNDS):
        for key, code in IMPORT_PROBES.items():
            t0 = time.monotonic_ns()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            samples[key].append((time.monotonic_ns() - t0) / 1e6)
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "import.interpreter_ms": med["interpreter"],
        "import.numpy_ms": med["numpy"] - med["interpreter"],
        "import.package_ms": med["package"] - med["numpy"],
    }


def per_layer(plain: dict, traced: dict, tracer, workload) -> dict:
    """Per-op layer figures from the traced loop, against the untraced one."""
    summary = spans.summarize(tracer)
    ops = len(traced["latencies"])
    out = {
        f"{layer}_ms": ns / ops / 1e6 for layer, ns in summary["self_ns"].items()
    }
    for module in spans.MODULES:
        errors = sum(v for k, v in tracer.errors.items() if k.split(".")[0] == module)
        out[f"{module}.errors"] = errors / ops
    out["jsonio.atoms"] = tracer.counts.get("jsonio.atoms", 0) / ops
    out["density.grid_points"] = tracer.counts.get("density.grid_points", 0) / ops
    out["measures.constructions"] = summary["constructions"] / ops
    verifies = traced["kinds"].count("verify-counterexample")
    pairs = verifies * (VERIFY_RANDOM_PAIRS + GRID_PAIRS)
    vc = summary["verify_constructions"]
    out["functors.verify.pairs_per_construction"] = pairs / vc if vc else 0.0
    for sub in CliCold.SUBCOMMANDS:
        lat = [v / 1e6 for v, k in zip(plain["latencies"], plain["kinds"]) if k == sub]
        cli = lat and workload.name == CliCold.name
        out[f"cli.{sub}.p50_ms"] = statistics.median(lat) if cli else 0.0
    out["trace.overhead_pct"] = 100.0 * (
        ops_per_s(plain, workload.BLOCK) / ops_per_s(traced, workload.BLOCK) - 1.0
    )
    plain_mean = sum(plain["latencies"]) / len(plain["latencies"])
    out["trace.selftime_vs_untraced_pct"] = 100.0 * (
        sum(summary["self_ns"].values()) / ops / plain_mean - 1.0
    )
    out.update(import_times())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    wrong = warm_up(workload)
    ready = time.monotonic_ns()
    result = {"ready_ns": ready, "harness_ns": workload.harness.ns, "warmup_failed": wrong}
    if not args.setup_only:
        if args.trace == 0:
            loop = closed_loop(workload, args.seconds)
            result["metrics"] = end_to_end(loop, workload)
            loops = [loop]
        else:
            plain = closed_loop(workload, args.seconds / 2)
            tracer = spans.Tracer()
            workload.trace(tracer)
            traced = closed_loop(workload, args.seconds / 2, tracer)
            tracer.write(BENCH / "out" / f"spans-{args.workload}.bin")
            result["metrics"] = per_layer(plain, traced, tracer, workload)
            loops = [plain, traced]
        result["attempted"] = sum(len(lp["latencies"]) for lp in loops)
        result["failed"] = sum(lp["failed"] for lp in loops)
        result["ops_by_kind"] = {
            k: loops[0]["kinds"].count(k) for k in sorted(set(loops[0]["kinds"]))
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
