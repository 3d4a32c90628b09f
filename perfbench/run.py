#!/usr/bin/env python3
"""End-to-end benchmark of the cache8t simulator.

Run from the repository root:

    python3 perfbench/run.py --workload stream-gen [--seed 42] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload serve-series --trace 1
    python3 perfbench/run.py --write-digests

Builds the release `cache8t` binary and the `cache8t-perfbench` tracing
companion from source, runs one workload with tracing off (`--trace 0`,
end-to-end metrics) or the traced per-layer run (`--trace 1`), checks
every output, and prints one JSON result object as the last line of
stdout. Records and span files land in `.bench_out/`. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import stats
import traced
import workloads

# Every end-to-end metric: name -> unit.
END_TO_END = {
    "mops": "Mops/s",
    "cpu_ns_per_op": "ns",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
}

# Set-up samples spread through one end-to-end run.
SETUP_SAMPLES = {"stream-gen": 8, "replay-miss": 4, "serve-series": 4}

# A run that is still going after this many seconds past its build is
# stopped, children included, and fails without a result.
DEADLINE_S = 170


def build(root):
    """Builds both binaries from source; exits non-zero on failure."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    for argv in (["cargo", "build", "--release", "--offline", "--bin", "cache8t"],
                 ["cargo", "build", "--release", "--offline",
                  "--manifest-path", "perfbench/Cargo.toml"]):
        if subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(argv)}")
    return target / "release" / "cache8t", target / "release" / "cache8t-perfbench"


def probe(ctx):
    """Seconds of the fixed reference loops (an integer loop and a
    memory-bound walk): reported next to the metrics so a slow host
    phase can be told from a regression; never used to scale or drop a
    run."""
    p = ctx.proc(ctx.perfbench, "probe")
    return json.loads(p.out) if p.code == 0 else None


def end_to_end(ctx, workload, seconds):
    m = workloads.WORKLOADS[workload](ctx, seconds, SETUP_SAMPLES[workload])
    values = m.end_to_end()
    tail = stats.tail(m.job_seconds)
    return {
        "correct": m.failed == 0 and m.setup_ok,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
        "notes": {
            "jobs": len(m.job_seconds),
            "job_tail_percentile": tail[1],
            "region_s": sum(m.job_seconds),
            "replayed_ops": m.replayed_ops,
            "setup_samples_s": m.setup_seconds,
            "job_seconds": m.job_seconds,
        },
    }


def write_digests(ctx):
    """Writes `digests.json`: the reference outputs of the default seed."""
    max_jobs = workloads.operations(60, workloads.SERVE_SERIES["jobs_per_s"], 0, True)
    documents = workloads.serve_series_references(ctx, [*range(max_jobs), workloads.WARMUP_JOB])
    entries = {
        "stream-gen": {"key": workloads.STREAM_GEN_KEY,
                       "digests": workloads.stream_gen_references(ctx)},
        "replay-miss": {"key": workloads.REPLAY_MISS_KEY,
                        "digests": workloads.replay_miss_references(ctx)},
        "serve-series": {"key": workloads.SERVE_SERIES_KEY,
                         "digests": {str(i): d for i, d in documents.items()}},
    }
    checks.DIGESTS.write_text(json.dumps(entries, indent=1) + "\n")


def kill_children():
    for child in list(workloads.LIVE):
        child.kill()
        child.wait()
        workloads.LIVE.remove(child)


def on_deadline(*_):
    kill_children()
    sys.stderr.write("perfbench: run exceeded its deadline\n")
    os._exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    cache8t, perfbench = build(root)
    out = root / ".bench_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    seed = checks.DEFAULT_SEED if args.write_digests else args.seed
    ctx = workloads.Context(cache8t, perfbench, seed, work, out)
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    started = time.perf_counter()
    try:
        if args.write_digests:
            write_digests(ctx)
            return
        before = probe(ctx)
        result = traced.traced_run(ctx) if args.trace else end_to_end(ctx, args.workload, args.seconds)
        after = probe(ctx)
    finally:
        kill_children()
        shutil.rmtree(work, ignore_errors=True)
    signal.alarm(0)

    result["notes"].update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_probe_s": {"before": before, "after": after},
        "run_s": time.perf_counter() - started,
    })
    record = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    notes = result["notes"]
    if args.trace:
        print(f"traced run: {len(result['metrics'])} per-layer metrics, "
              f"exact-count mismatches {notes['exact_mismatches'] or 'none'}")
    else:
        print(f"{args.workload}: {notes['jobs']} jobs over {notes['region_s']:.2f} s; "
              f"job_tail_s is the p{notes['job_tail_percentile']:.1f} of {notes['jobs']} jobs")
    print(f"host probe (fixed loops, s): before {before}, after {after}; record: {record.relative_to(root)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
