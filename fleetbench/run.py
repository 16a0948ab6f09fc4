#!/usr/bin/env python3
"""Repo benchmark: builds fleetbench from source and runs one workload.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It configures and builds
fleetbench/ (which compiles ../src) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set, runs the workload, checks its outputs
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a separate traced run. README.md has the details.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402

WORKLOADS = ("generated-fleet", "traffic-only", "faulted-resume")
# Claims are made on the default seed and must also hold on the held-out
# seed 7919 (README.md, "Seeds").
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175  # whole run, build excluded


def log(message):
    print(f"fleetbench: {message}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, stdout=None):
    """Run `cmd` to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, stdout=stdout or sys.stderr,
                          stderr=sys.stderr, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        return out


def build(build_root):
    build_dir = build_root / "fleetbench"
    run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_checked(["cmake", "--build", str(build_dir), "-j", jobs,
                 "--target", "fleetbench"], BUILD_TIMEOUT_S)
    return build_dir / "fleetbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.SubprocessError, OSError) as err:
        log(f"build failed: {err}")
        return 1

    workdir = build_root / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = workdir / "spans.tsv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--spans", str(spans_path)]
    start = time.monotonic()
    try:
        out = run_checked(cmd, RUN_DEADLINE_S, stdout=subprocess.PIPE)
        raw = json.loads(out.strip().splitlines()[-1])
        (workdir / "raw.json").write_text(json.dumps(raw))
    except (subprocess.SubprocessError, OSError, ValueError,
            IndexError) as err:
        log(f"run failed: {err}")
        return 1

    trace = bool(args.trace)
    ok, reasons = metrics.correctness(raw, trace)
    for reason in reasons:
        log(f"check failed: {reason}")
    attempted, failed = raw["attempted"], raw["failed"]
    if trace:
        try:
            with open(spans_path) as f:
                spans = metrics.parse_spans(f)
            spans_path.unlink()
        except OSError as err:
            log(f"no spans: {err}")
            return 1
        values = metrics.per_layer(raw, spans)
        attempted += raw["traced_cars"]
        failed += raw["traced_failed"]
        note = f"tracing overhead {values['trace.overhead_frac'][0]:.3f}"
    else:
        values, note = metrics.end_to_end(raw)
        if raw["min_gp_precision"] > 0:
            note += f", gp precision {metrics.gp_precision(raw):.4f}"
    share = metrics.failure_share(attempted, failed)
    print(f"{args.workload} seed={args.seed}: {raw['attempted']} campaigns "
          f"in {raw['batches']} batches on {raw['threads']} threads, "
          f"digest {raw['digest']}, failure share {share:.4f}, {note}, "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
