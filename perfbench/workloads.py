"""The three end-to-end workloads, run against the release `cache8t`
binary with tracing off.

Every workload is a closed loop: one operation (a `simulate` invocation
or a served job) starts only after the previous one ended. Its work is
fixed by `--seconds` at a nominal rate, so the job count, and with it
the daemon's memory, does not depend on how fast the host happens to be.
"""

import json
import os
import re
import socket
import statistics
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats

# Children still running; the run's watchdog kills them on a timeout.
LIVE = []


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    out: str


def run_proc(argv, stderr_path):
    """Runs `argv` to completion; wall time from spawn to reap, CPU and
    peak RSS from the kernel's resource usage of the child."""
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE, stderr=err)
        LIVE.append(child)
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    LIVE.remove(child)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                child.returncode, out.decode(errors="replace"))


@dataclass
class Measured:
    """What one workload's measured region produced."""

    replayed_ops: int = 0
    # Turnaround of each job: a `simulate` invocation on stream-gen, a
    # pass over all five schemes on replay-miss, a served job.
    job_seconds: list = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    setup_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_ok: bool = True
    notes: dict = field(default_factory=dict)

    def end_to_end(self):
        """The end-to-end metrics, by name."""
        region_s = sum(self.job_seconds)
        job_tail = stats.tail(self.job_seconds)
        return {
            "mops": stats.total_rate([self.replayed_ops], [region_s]) / 1e6,
            "cpu_ns_per_op": self.cpu_s * 1e9 / self.replayed_ops,
            "peak_rss_mib": self.peak_rss_mib,
            "setup_s": stats.interquartile_mean(self.setup_seconds),
            "job_p50_s": statistics.median(self.job_seconds),
            "job_tail_s": job_tail[0] if job_tail else float("nan"),
        }


def operations(seconds, rate, minimum, tail_floor):
    """Operations a run makes: `seconds` of work at the nominal `rate`,
    and with `tail_floor` at least `minimum`, enough for the tail rule."""
    return max(minimum if tail_floor else 1, round(seconds * rate))


def spread_points(count, samples):
    """Operation indices before which set-up samples are taken: the
    first before operation 0, the rest evenly through the run."""
    return [round(i * count / samples) for i in range(samples)]


class Context:
    """Binaries, seed and working directory of one benchmark run."""

    def __init__(self, cache8t, perfbench, seed, work, out):
        self.cache8t = cache8t
        self.perfbench = perfbench
        self.seed = seed
        self.work = work
        self.out = out
        self.stderr = work / "stderr.txt"

    def proc(self, *argv):
        return run_proc(argv, self.stderr)

    def references(self, reference, items):
        """`{item: reference(item)}`, two at a time: reference runs sit
        outside the timed region, so they may use both cores."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(items, pool.map(reference, items)))


# ---------------------------------------------------------------- stream-gen

STREAM_GEN = {"profile": "gcc", "scheme": "wg+rb", "ops": 4_000_000,
              "chunk_ops": 65_536, "ops_per_s": 6.0e6, "min_runs": 12}


def stream_gen_argv(ctx, ops):
    c = STREAM_GEN
    return [ctx.cache8t, "simulate", "--profile", c["profile"], "--scheme", c["scheme"],
            "--ops", ops, "--seed", ctx.seed, "--stream-chunk-ops", c["chunk_ops"]]


STREAM_GEN_KEY = {k: STREAM_GEN[k] for k in ("profile", "scheme", "ops")}


def stream_gen_references(ctx):
    """The reference: the same replay materialized, one op at a time."""
    c = STREAM_GEN
    argv = [ctx.cache8t, "simulate", "--profile", c["profile"], "--scheme", c["scheme"],
            "--ops", c["ops"], "--seed", ctx.seed]
    return {c["scheme"]: checks.reference_simulate(ctx.proc, argv)}


def stream_gen(ctx, seconds, setup_samples, tail_floor=True):
    """`simulate --stream-chunk-ops` over a long gcc trace through WG+RB,
    repeated; set-up is a one-chunk `simulate` launch."""
    c = STREAM_GEN
    runs = operations(seconds, c["ops_per_s"] / c["ops"], c["min_runs"], tail_floor)
    m = Measured()
    outputs = []
    setup_at = spread_points(runs, setup_samples)
    for i in range(runs):
        for _ in range(setup_at.count(i)):
            p = ctx.proc(*stream_gen_argv(ctx, c["chunk_ops"]))
            m.setup_ok &= p.code == 0
            m.setup_seconds.append(p.wall_s)
        p = ctx.proc(*stream_gen_argv(ctx, c["ops"]))
        m.job_seconds.append(p.wall_s)
        m.cpu_s += p.cpu_s
        m.peak_rss_mib = max(m.peak_rss_mib, p.rss_mib)
        m.replayed_ops += c["ops"]
        outputs.append(p)
    expected = (checks.load_digests("stream-gen", STREAM_GEN_KEY) if ctx.seed == checks.DEFAULT_SEED
                else stream_gen_references(ctx))[c["scheme"]]
    m.attempted = len(outputs)
    m.failed = sum(not checks.simulate_ok(p, expected) for p in outputs)
    return m


# --------------------------------------------------------------- replay-miss

REPLAY_MISS = {"profile": "mcf", "ops": 1_000_000, "cache": "32,4,32", "chunk_ops": 65_536,
               "schemes": ["6t", "rmw", "wg", "wg+rb", "coalesce:8"],
               "ops_per_s": 6.0e6, "min_passes": 12}


REPLAY_MISS_KEY = {k: REPLAY_MISS[k] for k in ("profile", "ops", "cache")}


def replay_miss_references(ctx):
    """The reference: each scheme over the same trace generated
    in-process and replayed materialized, one op at a time."""
    c = REPLAY_MISS
    return ctx.references(lambda scheme: checks.reference_simulate(ctx.proc, [
        ctx.cache8t, "simulate", "--profile", c["profile"], "--scheme", scheme,
        "--ops", c["ops"], "--seed", ctx.seed, "--cache", c["cache"]]), c["schemes"])


def replay_miss(ctx, seconds, setup_samples, tail_floor=True):
    """Set-up writes an mcf trace with `cache8t gen`; each pass replays
    the file once per scheme, streamed, at the paper's 32 KB geometry.
    A pass is the job: five invocations of unequal length would make a
    median that jumps between the schemes' clusters."""
    c = REPLAY_MISS
    files = Path(tempfile.mkdtemp(prefix="replay-miss-", dir=ctx.work))
    trace, again = files / "trace.c8tt", files / "again.c8tt"
    gen = [ctx.cache8t, "gen", "--profile", c["profile"], "--ops", c["ops"], "--seed", ctx.seed]
    passes = operations(seconds, c["ops_per_s"] / (len(c["schemes"]) * c["ops"]),
                        c["min_passes"], tail_floor)
    m = Measured()
    outputs = []
    setup_at = spread_points(passes, setup_samples)
    for i in range(passes):
        for _ in range(setup_at.count(i)):
            # The first sample writes the trace every pass replays; later
            # ones must write the same bytes.
            target = again if trace.exists() else trace
            p = ctx.proc(*gen, "--out", target)
            m.setup_ok &= p.code == 0
            m.setup_seconds.append(p.wall_s)
            if target == again:
                m.setup_ok &= again.read_bytes() == trace.read_bytes()
            else:
                trace.read_bytes()  # the page cache holds the file from here on
        pass_s = 0.0
        for scheme in c["schemes"]:
            p = ctx.proc(ctx.cache8t, "simulate", "--trace", trace, "--scheme", scheme,
                         "--cache", c["cache"], "--stream-chunk-ops", c["chunk_ops"])
            pass_s += p.wall_s
            m.cpu_s += p.cpu_s
            m.peak_rss_mib = max(m.peak_rss_mib, p.rss_mib)
            m.replayed_ops += c["ops"]
            outputs.append((scheme, p))
        m.job_seconds.append(pass_s)
    expected = (checks.load_digests("replay-miss", REPLAY_MISS_KEY) if ctx.seed == checks.DEFAULT_SEED
                else replay_miss_references(ctx))
    m.attempted = len(outputs)
    m.failed = sum(not checks.simulate_ok(p, expected[s]) for s, p in outputs)
    return m


# -------------------------------------------------------------- serve-series

SERVE_SERIES = {"profiles": ["bwaves", "lbm", "wrf"], "geometries": ["baseline", "small"],
                "ops": 50_000, "series_cadence": 8_192, "jobs_per_s": 4.5, "min_jobs": 12,
                "schemes": 4}

# Plan index of the warm-up job every daemon runs during set-up.
WARMUP_JOB = 999


def job_seed(seed, index):
    """Plan seed of job `index`: a fresh seed per job, so no job finds
    another's traces in the daemon's store."""
    return (seed * 1000 + index) % 2**64


def job_plan(seed, index):
    c = SERVE_SERIES
    return {"profiles": c["profiles"], "geometries": c["geometries"], "ops": c["ops"],
            "seed": job_seed(seed, index), "series_cadence": c["series_cadence"]}


SERVE_SERIES_KEY = {k: SERVE_SERIES[k] for k in ("profiles", "geometries", "ops")}


def serve_series_references(ctx, indices):
    """Batch `cache8t sweep` documents of the plans of jobs `indices`."""
    return ctx.references(lambda i: checks.reference_sweep(
        ctx.proc, ctx.cache8t, job_plan(ctx.seed, i), ctx.work / f"reference-{i}.json"), indices)


def serve_series_expected(ctx, indices):
    known = {}
    if ctx.seed == checks.DEFAULT_SEED:
        known = {int(i): d for i, d in checks.load_digests("serve-series", SERVE_SERIES_KEY).items()}
    missing = [i for i in indices if i not in known]
    return {**known, **serve_series_references(ctx, missing)}


def job_replayed_ops():
    c = SERVE_SERIES
    return stats.sweep_replayed_ops(len(c["profiles"]), len(c["geometries"]), c["schemes"], c["ops"])


@dataclass
class Job:
    """One served job as the client saw it."""

    plan_index: int
    seconds: float  # submit sent -> results received
    submit_s: float
    queue_s: float
    run_s: float
    results_s: float
    state: str
    results: bytes


class Daemon:
    """A `cache8t serve --jobs 1` process and one client connection."""

    def __init__(self, ctx, name):
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ctx.work))
        self.stderr = self.dir / "stderr.txt"
        with open(self.stderr, "wb") as err:
            self.proc = subprocess.Popen(
                [str(ctx.cache8t), "serve", "--listen", "127.0.0.1:0", "--jobs", "1",
                 "--checkpoint-dir", str(self.dir / "checkpoints"), "--trace-store", "off",
                 "--log-out", str(self.dir / "oplog.jsonl")],
                stdout=subprocess.DEVNULL, stderr=err)
        LIVE.append(self.proc)
        host, port = self._address()
        self.sock = socket.create_connection((host, port))
        self.lines = self.sock.makefile("rb")

    def _address(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            found = re.search(rb"listening on (\S+):(\d+)", self.stderr.read_bytes())
            if found:
                return found.group(1).decode(), int(found.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"daemon did not start: {self.stderr.read_text(errors='replace')}")

    def send(self, verb, **fields):
        line = json.dumps({"v": "1", "verb": verb, **fields}, separators=(",", ":")) + "\n"
        self.sock.sendall(line.encode())

    def request(self, verb, **fields):
        self.send(verb, **fields)
        return json.loads(self.lines.readline())

    def run_job(self, seed, index):
        """Submits one plan, follows it with `watch` until `done`, then
        fetches the document; times the turnaround client-side."""
        t0 = time.perf_counter()
        self.send("submit", plan=job_plan(seed, index))
        job = json.loads(self.lines.readline()).get("job")
        t_ack = time.perf_counter()
        self.send("watch", job=job)
        t_running = None
        while True:
            line = self.lines.readline()
            if not line:
                raise RuntimeError("daemon closed the connection")
            if b'"event":"series"' in line:
                continue
            row = json.loads(line)
            if row.get("event") == "state" and row.get("state") == "running":
                t_running = time.perf_counter()
            if row.get("event") == "done":
                state = row.get("state")
                break
        t_done = time.perf_counter()
        self.send("results", job=job)
        results = self.lines.readline()
        t_end = time.perf_counter()
        t_running = t_running or t_ack
        return Job(index, t_end - t0, t_ack - t0, t_running - t_ack, t_done - t_running,
                   t_end - t_done, state, results)

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def close(self):
        """Asks the daemon to shut down and waits for it to exit."""
        try:
            self.request("shutdown")
        finally:
            self.lines.close()
            self.sock.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            LIVE.remove(self.proc)
        return self.proc.returncode


def start_daemon(ctx, name, seed):
    """Set-up: launch a daemon and run one warm-up job through to its
    results. Returns the daemon, the seconds it took, and the job."""
    start = time.perf_counter()
    daemon = Daemon(ctx, name)
    warmup = daemon.run_job(seed, WARMUP_JOB)
    return daemon, time.perf_counter() - start, warmup


def serve_series(ctx, seconds, setup_samples, tail_floor=True):
    """One client on one connection submits sampled sweep plans back to
    back to a `cache8t serve --jobs 1` daemon."""
    c = SERVE_SERIES
    jobs = operations(seconds, c["jobs_per_s"], c["min_jobs"], tail_floor)
    m = Measured()
    daemon, setup_s, warmup = start_daemon(ctx, "daemon", ctx.seed)
    m.setup_seconds.append(setup_s)
    served = []
    extra_setup = spread_points(jobs, setup_samples)[1:]
    try:
        cpu_before = daemon.cpu_s()
        for index in range(jobs):
            for _ in range(extra_setup.count(index)):
                probe, setup_s, probe_warmup = start_daemon(ctx, f"setup-{len(m.setup_seconds)}", ctx.seed)
                m.setup_ok &= probe.close() == 0 and probe_warmup.state == "completed"
                m.setup_seconds.append(setup_s)
            served.append(daemon.run_job(ctx.seed, index))
        m.cpu_s = daemon.cpu_s() - cpu_before
        m.peak_rss_mib = daemon.peak_rss_mib()
        m.notes["metrics"] = daemon.request("metrics")
    finally:
        m.setup_ok &= daemon.close() == 0
    m.job_seconds = [j.seconds for j in served]
    m.replayed_ops = jobs * job_replayed_ops()
    m.notes["jobs"] = served
    expected = serve_series_expected(ctx, [j.plan_index for j in served] + [WARMUP_JOB])
    m.setup_ok &= checks.served_failures([warmup], expected) == 0
    m.attempted = len(served)
    m.failed = checks.served_failures(served, expected)
    return m


WORKLOADS = {
    "stream-gen": stream_gen,
    "replay-miss": replay_miss,
    "serve-series": serve_series,
}
