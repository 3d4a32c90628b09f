"""The traced run: per-layer metrics of every workload.

`cache8t-perfbench` drives each workload through the public calls the
CLI and daemon make and records one span per chunk, sub-batch, window or
job around each call; layer self times come from those spans. The serve
layer is timed from the client, split at the `watch` state events, and
read back through the daemon's `metrics` verb. Each workload's tracing
overhead is its traced `mops` against a short untraced run of the real
binary. The whole pass runs twice on the same seed, and every exact
count must repeat bit for bit.
"""

import json
import statistics

import workloads

# Untraced seconds per workload behind the overhead figure and the
# client-side serve timings.
REFERENCE_SECONDS = 3
# Zero-op `simulate` launches behind `cli.launch_ms`.
LAUNCHES = 20

TRACED_PASSES = {
    "stream-gen": ["--ops", 8_000_000, "--chunk-ops", workloads.STREAM_GEN["chunk_ops"]],
    "replay-miss": ["--ops", workloads.REPLAY_MISS["ops"],
                    "--chunk-ops", workloads.REPLAY_MISS["chunk_ops"]],
    "serve-series": ["--ops", workloads.SERVE_SERIES["ops"],
                     "--cadence", workloads.SERVE_SERIES["series_cadence"]],
}
# Jobs the traced serve-series pass re-drives: the first ones the
# untraced run submits.
TRACED_JOBS = 3

NS = ("ns/op", "lower")
RATIO_LOW = ("ratio", "lower")


def _scheme_counts(prefix, tags):
    rows = []
    for tag in tags:
        rows += [(f"{prefix}.core.{tag}.miss_ratio", *RATIO_LOW),
                 (f"{prefix}.core.{tag}.array_accesses_per_op", "count/op", "lower"),
                 (f"{prefix}.core.{tag}.line_fills_per_kop", "count/kop", "lower")]
    return rows + [(f"{prefix}.core.wg.grouped_write_ratio", "ratio", "higher"),
                   (f"{prefix}.core.wgrb.bypassed_read_ratio", "ratio", "higher")]


def _overhead(prefix):
    return [(f"{prefix}.tracing.traced_mops", "Mops/s", "higher"),
            (f"{prefix}.tracing.untraced_mops", "Mops/s", "higher"),
            (f"{prefix}.tracing.overhead_pct", "%", "lower")]


MISS_TAGS = ["6t", "rmw", "wg", "wgrb", "coalesce8"]
SWEEP_TAGS = ["6t", "rmw", "wg", "wgrb"]
VERBS = ["submit", "watch", "results"]

# Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    [("stream-gen.cli.launch_ms", "ms", "lower"),
     ("stream-gen.trace.generate.ns_per_op", *NS),
     ("stream-gen.exec.prefetch.wait_ns_per_op", *NS),
     ("stream-gen.exec.prefetch.send_wait_ns_per_op", *NS),
     ("stream-gen.trace.decode.ns_per_op", *NS),
     ("stream-gen.core.wgrb.batch_ns_per_op", *NS),
     ("stream-gen.core.wgrb.miss_ratio", *RATIO_LOW)]
    + _overhead("stream-gen")
    + [(f"replay-miss.trace.{call}.ns_per_op", *NS) for call in ("generate", "write", "read", "decode")]
    + [("replay-miss.exec.prefetch.wait_ns_per_op", *NS),
       ("replay-miss.exec.prefetch.send_wait_ns_per_op", *NS)]
    + [(f"replay-miss.core.{tag}.batch_ns_per_op", *NS) for tag in MISS_TAGS]
    + _scheme_counts("replay-miss", MISS_TAGS)
    + [("replay-miss.sim.find_in_set.ns_per_op", *NS),
       ("replay-miss.sim.memory.resident_blocks", "blocks", "lower")]
    + _overhead("replay-miss")
    + [("serve-series.trace.generate.ns_per_op", *NS),
       ("serve-series.trace.analyze.ns_per_op", *NS),
       ("serve-series.exec.sweep.overhead_ms_per_job", "ms/job", "lower"),
       ("serve-series.exec.store.hit_ratio", "ratio", "higher")]
    + [(f"serve-series.core.{tag}.access_ns_per_op", *NS) for tag in SWEEP_TAGS]
    + _scheme_counts("serve-series", SWEEP_TAGS)
    + [("serve-series.obs.sampler.sample_us_per_window", "us", "lower"),
       ("serve-series.obs.sampler.windows_per_job", "count/job", "lower"),
       ("serve-series.obs.registry.snapshot_us", "us", "lower"),
       ("serve-series.serve.submit_ms", "ms", "lower"),
       ("serve-series.serve.queue_ms", "ms", "lower"),
       ("serve-series.serve.run_s", "s", "lower"),
       ("serve-series.serve.results_ms", "ms", "lower"),
       ("serve-series.serve.journal.bytes_per_job", "bytes/job", "lower")]
    + [(f"serve-series.serve.verb.{verb}.p50_us", "us", "lower") for verb in VERBS]
    + _overhead("serve-series")
)


def log2_quantile(histogram, q):
    """Quantile of a registry log2 histogram, interpolated linearly
    inside the bucket that holds it (bucket k covers [2^(k-1), 2^k))."""
    count = histogram["count"]
    rank = q * count
    seen = 0
    for index, n in histogram["buckets"]:
        if seen + n >= rank:
            if index == 0:
                return 0.0
            low, high = 2 ** (index - 1), 2 ** index
            return low + (high - low) * (rank - seen) / n
        seen += n
    return float(histogram["max"])


def serve_client_metrics(measured):
    """Client-side serve timings and the daemon's own figures."""
    jobs = measured.notes["jobs"]
    snapshot = measured.notes["metrics"]
    server, registry = snapshot["server"], snapshot["registry"]
    out = {
        "serve.submit_ms": statistics.median(j.submit_s for j in jobs) * 1e3,
        "serve.queue_ms": statistics.median(j.queue_s for j in jobs) * 1e3,
        "serve.run_s": statistics.median(j.run_s for j in jobs),
        "serve.results_ms": statistics.median(j.results_s for j in jobs) * 1e3,
        "serve.journal.bytes_per_job": server["journal"]["bytes"] / server["jobs"]["completed"],
    }
    for verb in VERBS:
        histogram = registry["histograms"][f"serve.verb.{verb}.latency_us"]
        out[f"serve.verb.{verb}.p50_us"] = log2_quantile(histogram, 0.5)
    return out


def traced_pass(ctx, tag):
    """One full traced pass over all three workloads. Returns the metrics,
    the names of exact counts, and (attempted, failed) operations."""
    metrics, exact = {}, {"serve-series.serve.journal.bytes_per_job"}
    attempted = failed = 0
    empty = ctx.work / "empty.c8tt"
    if ctx.proc(ctx.perfbench, "empty-trace", "--out", empty).code != 0:
        raise RuntimeError("cannot write the zero-op trace")
    launches = []
    for _ in range(LAUNCHES):
        p = ctx.proc(ctx.cache8t, "simulate", "--trace", empty, "--scheme", "wg+rb",
                     "--stream-chunk-ops", workloads.STREAM_GEN["chunk_ops"])
        attempted += 1
        failed += p.code != 0
        launches.append(p.wall_s)
    metrics["stream-gen.cli.launch_ms"] = statistics.median(launches) * 1e3

    for name, run in workloads.WORKLOADS.items():
        m = run(ctx, REFERENCE_SECONDS, 1, tail_floor=False)
        attempted += m.attempted
        failed += m.failed + (not m.setup_ok)
        untraced = m.end_to_end()["mops"]
        spans = ctx.out / f"spans-{name}-{tag}.jsonl"
        if name == "serve-series":
            seeds = ",".join(str(workloads.job_seed(ctx.seed, i)) for i in range(TRACED_JOBS))
            extra = ["--seeds", seeds]
        else:
            extra = ["--seed", ctx.seed] + (["--dir", ctx.work] if name == "replay-miss" else [])
        p = ctx.proc(ctx.perfbench, name, *TRACED_PASSES[name], *extra, "--spans", spans)
        attempted += 1
        if p.code != 0:
            failed += 1
            continue
        report = json.loads(p.out.strip().splitlines()[-1])
        metrics.update({f"{name}.{k}": v for k, v in report["metrics"].items()})
        exact.update(f"{name}.{k}" for k in report["exact"])
        metrics[f"{name}.tracing.traced_mops"] = report["mops"]
        metrics[f"{name}.tracing.untraced_mops"] = untraced
        metrics[f"{name}.tracing.overhead_pct"] = (untraced - report["mops"]) / untraced * 100
        if name == "serve-series":
            metrics.update({f"{name}.{k}": v for k, v in serve_client_metrics(m).items()})
    return metrics, exact, attempted, failed


def exact_mismatches(first, second, exact):
    """Exact counts the second pass did not reproduce bit for bit."""
    return sorted(name for name in exact if repr(first.get(name)) != repr(second.get(name)))


def traced_run(ctx):
    """Both traced passes, the exact-count gate, and the per-layer
    metrics of the first pass."""
    first, exact, attempted_a, failed_a = traced_pass(ctx, "a")
    second, _, attempted_b, failed_b = traced_pass(ctx, "b")
    mismatched = exact_mismatches(first, second, exact)
    missing = sorted({name for name, _, _ in PER_LAYER} - first.keys())
    units = {name: unit for name, unit, _ in PER_LAYER}
    failed = failed_a + failed_b + bool(mismatched or missing)
    return {
        "correct": failed == 0,
        "attempted": attempted_a + attempted_b + 1,
        "failed": failed,
        "metrics": {name: {"value": first[name], "unit": units[name]}
                    for name, _, _ in PER_LAYER if name in first},
        "notes": {"exact_mismatches": mismatched, "missing": missing, "exact": sorted(exact)},
    }
