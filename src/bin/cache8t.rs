//! `cache8t` — command-line front end for the workspace.
//!
//! ```text
//! cache8t list-profiles
//! cache8t gen      --profile bwaves --ops 100000 --seed 1 --out bwaves.c8tt
//! cache8t analyze  --trace bwaves.c8tt
//! cache8t simulate --scheme wg+rb --trace bwaves.c8tt
//! cache8t simulate --scheme rmw --profile gcc --ops 200000
//! ```
//!
//! Traces use the binary format of `cache8t_trace` (`.c8tt`); `simulate`
//! accepts either a saved trace or a profile name to generate one on the
//! fly. Schemes: `6t`, `rmw`, `wg`, `wg+rb`, `coalesce:<entries>`.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cache8t::conform::{self, fuzz, ConformConfig, ConformReport};
use cache8t::core::{CacheBackend, Controller, SchemeKind};
use cache8t::exec::{
    average, merge_documents, metrics_document, replay, run_jobs, run_sweep, to_document,
    BenchmarkResult, ChunkSource, ExecOptions, JobOutcome, Ops, PrefetchedChunks, Shard,
    SweepOptions, SweepPlan, TraceStore,
};
use cache8t::obs::sampler::{self, Sampler, SamplerConfig, SeriesSample};
use cache8t::obs::{
    perfdiff, timeline, Component, EventKind, MetricRegistry, Span, TraceEvent, TraceLevel, Tracer,
};
use cache8t::serve::{Client, ClientError, PlanSpec, ServeConfig, Server};
use cache8t::sim::{kernels, CacheGeometry, ReplacementKind};
use cache8t::trace::analyze::StreamStats;
use cache8t::trace::{
    profiles, ChunkedGenerator, DecodedBatch, ProfiledGenerator, Trace, TraceChunk,
    TraceFileReader, TraceGenerator, WorkloadProfile,
};

/// Set once a report write finds stdout closed (`cache8t ... | head`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Whether a report write has found stdout closed.
fn stdout_closed() -> bool {
    STDOUT_CLOSED.load(Ordering::Relaxed)
}

/// Writes report output to stdout. A closed stdout ends the report, not
/// the command: after the first `BrokenPipe` every write is dropped, so
/// the command still writes its files and exits 0. Any other write error
/// fails the command.
fn write_stdout(args: std::fmt::Arguments) -> Result<(), String> {
    if stdout_closed() {
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        written => written.map_err(|e| format!("cannot write stdout: {e}")),
    }
}

/// `print!` through [`write_stdout`].
macro_rules! stdout {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! stdoutln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "\
usage: cache8t <command> [options]

commands:
  list-profiles                          list the 25 calibrated benchmark profiles
  gen      --profile NAME --out FILE     generate a trace to FILE
           [--ops N] [--seed S]
  analyze  (--trace FILE | --profile NAME)
           [--ops N] [--seed S]          print stream statistics (Figures 3-5
           [--cache CAPKB,WAYS,BLOCKB]   metrics) of a saved or generated trace
  simulate --scheme SCHEME               replay through one controller
           (--trace FILE | --profile NAME)
           [--ops N] [--seed S]
           [--cache CAPKB,WAYS,BLOCKB]
           [--l2 CAPKB,WAYS,BLOCKB]
           [--metrics-out FILE]          write the metric registry as JSON
           [--trace-out FILE]            write recorded events as JSONL
                                         (set CACHE8T_TRACE=event|verbose)
           [--timeline-out FILE]         write a Chrome/Perfetto trace
           [--series-out FILE]           stream windowed telemetry as JSONL
           [--series-cadence N]          ops per telemetry window
                                         (default: 65536)
           [--stream-chunk-ops N]        replay as a bounded-memory chunk
                                         stream (bit-identical results,
                                         RSS ~ 2 chunks for any --ops)
  sweep                                  run benchmarks x geometries x schemes
           [--ops N] [--seed S]          on the parallel execution engine
           [--jobs N]                    worker threads (default: all cores)
           [--shard I/N]                 run the I-th of N benchmark shards
           [--profiles A,B,..]           subset of profiles (default: all 25)
           [--geometries A,B,..]         of baseline,blocks64,small,large
           [--out FILE]                  write the sweep document as JSON
           [--json]                      print the sweep document to stdout
           [--metrics-out FILE]          write merged scheme + scheduler
                                         metrics as JSON (perfdiff input)
           [--timeline-out FILE]         write a Chrome/Perfetto execution
                                         timeline (one track per worker)
           [--series-out FILE]           write windowed telemetry of every
                                         scheme run as JSONL, in plan order
                                         (byte-identical for any --jobs)
           [--series-cadence N]          ops per telemetry window
           [--trace-store DIR|off]       cache generated traces on disk
                                         (default: off, or
                                         CACHE8T_TRACE_STORE)
           [--stream-chunk-ops N]        stream traces in N-op chunks
                                         instead of materializing them
                                         (byte-identical documents)
  sweep    --merge FILE [--merge FILE..] merge shard documents into one
           [--out FILE] [--json]
  watch    SERIES.jsonl                  rolling dashboard over a telemetry
           [--follow]                    series; --follow tails the file as
           [--rows N]                    a live replay appends windows
  report-series SERIES.jsonl             phase-resolved summary tables and
                                         sparklines from a telemetry series
  bench-core                             single-thread replay throughput of
           [--profile NAME]              the simulator core (batched replay
           [--ops N] [--seed S]          path), one row per scheme plus the
           [--reps N]                    generate/decode/probe/compare
                                         kernel and counter_inc/emit_off
                                         observability microbenches; best
                                         of N reps kept (default profile:
                                         gcc)
           [--cache CAPKB,WAYS,BLOCKB]
           [--l2 CAPKB,WAYS,BLOCKB]
           [--out FILE] [--json]         perfdiff-compatible JSON document
  perfdiff BASELINE.json CURRENT.json    compare two metric snapshots
           [--fail-on-regress PCT]      exit 1 when any aligned metric
                                         drifts more than PCT percent
           [--ignore PREFIX,..]          skip metric families (e.g. sweep.)
           [--json] [--out FILE]         machine-readable report
  serve    --listen ADDR                 sweep-as-a-service daemon speaking
           [--checkpoint-dir DIR]        a JSONL protocol; ADDR is host:port
           [--jobs N]                    or unix:/path/to.sock; with a
           [--trace-store DIR|off]       checkpoint dir, interrupted sweeps
           [--stream-chunk-ops N]        resume from completed benchmarks;
           [--log-out FILE]              --stream-chunk-ops streams traces;
           [--timeline-out FILE]         --log-out writes a structured JSONL
                                         oplog (level via CACHE8T_LOG, to
                                         stderr otherwise), --timeline-out
                                         a Perfetto trace of job lifecycles
  client   --connect ADDR ACTION         drive a running daemon; actions:
           [--job ID]                    submit [plan flags] [--wait],
           [--profiles A,B,..]           status [--job ID], fetch --job ID,
           [--geometries A,B,..]         watch --job ID, cancel --job ID,
           [--ops N] [--seed S]          health, metrics [--text], shutdown;
           [--series-cadence N]          fetch (and submit --wait) emit the
           [--wait] [--out FILE] [--json] sweep document via --out/--json;
           [--text]                      metrics --text renders Prometheus
                                         exposition format
  top      --connect ADDR                live daemon-wide dashboard: queue,
           [--interval-ms N]             per-phase job counts, journal and
           [--once]                      trace-store vitals, per-job table;
                                         repaints every N ms (default 1000),
                                         --once prints a single frame
  check                                  differential conformance harness:
           [--schemes A,B,..]            replay profiles + fuzzed traces in
           [--profiles A,B,..]           lockstep through every scheme and a
           [--trace FILE]                golden memory; check a saved trace
           [--ops N] [--seed S]          (e.g. a shrunk reproducer) instead
           [--cache CAPKB,WAYS,BLOCKB]
           [--fuzz-rounds N]             seeded random traces (default: 10)
           [--jobs N]                    worker threads (default: all cores)
           [--shrink-out DIR]            where failing traces are shrunk to
                                         .c8tt reproducers (default:
                                         results/repro)
           [--trace-out FILE]            write divergence events as JSONL

schemes: 6t, rmw, wg, wg+rb, coalesce:<entries>
defaults: --ops 100000, --seed 42, --cache 64,4,32, no L2";

/// Every option of every subcommand, each flag parsed and validated
/// once by [`parse`], which also sets the defaults. A subcommand reads
/// only the flags its [`Command`] entry lists; [`parse`] rejects the
/// rest.
#[derive(Debug, Default)]
struct Options {
    /// Positional arguments, in order (see [`Command::args`]).
    args: Vec<String>,
    profile: Option<String>,
    trace: Option<String>,
    out: Option<String>,
    scheme: Option<SchemeKind>,
    ops: usize,
    seed: u64,
    cache: CacheGeometry,
    l2: Option<CacheGeometry>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    timeline_out: Option<String>,
    series_out: Option<String>,
    series_cadence: Option<usize>,
    jobs: usize,
    shard: Option<Shard>,
    profiles: Option<Vec<String>>,
    geometries: Option<Vec<String>>,
    json: bool,
    trace_store: Option<String>,
    merge: Vec<String>,
    schemes: Option<Vec<SchemeKind>>,
    fuzz_rounds: usize,
    shrink_out: Option<String>,
    reps: usize,
    stream_chunk_ops: Option<usize>,
    /// `perfdiff` regression gate in percent; `None` means report-only
    /// (never fails).
    fail_on_regress: Option<f64>,
    ignore: Vec<String>,
    follow: bool,
    rows: usize,
    listen: Option<String>,
    checkpoint_dir: Option<String>,
    log_out: Option<String>,
    connect: Option<String>,
    job: Option<String>,
    wait: bool,
    text: bool,
    interval_ms: u64,
    once: bool,
}

/// One subcommand: its handler, its positional arguments and the flags
/// it reads.
struct Command {
    name: &'static str,
    run: fn(&Options) -> Result<(), String>,
    /// Its positional arguments, space-separated; all are required.
    args: &'static str,
    /// The flags it reads, as space-separated groups.
    flags: &'static [&'static str],
    /// Its modes that read only some of those flags.
    modes: &'static [Mode],
}

/// A mode of a subcommand, selected by a flag (`sweep --merge`) or by
/// the action argument (`client submit`). [`parse`] rejects a flag the
/// selected mode does not read.
struct Mode {
    /// The selecting flag or action.
    when: &'static str,
    /// The flags the mode reads, as space-separated groups.
    flags: &'static [&'static str],
}

/// The flags that describe a sweep plan. `sweep` runs the plan they
/// describe and `client submit` sends it, both built by [`plan_spec`].
const PLAN_FLAGS: &str = "--profiles --geometries --ops --seed --series-cadence";

const COMMANDS: &[Command] = &[
    Command {
        name: "list-profiles",
        run: cmd_list_profiles,
        args: "",
        flags: &[],
        modes: &[],
    },
    Command {
        name: "gen",
        run: cmd_gen,
        args: "",
        flags: &["--profile --out --ops --seed"],
        modes: &[],
    },
    Command {
        name: "analyze",
        run: cmd_analyze,
        args: "",
        flags: &["--trace --profile --ops --seed --cache"],
        modes: &[],
    },
    Command {
        name: "simulate",
        run: cmd_simulate,
        args: "",
        flags: &[
            "--scheme --trace --profile --ops --seed --cache --l2 --stream-chunk-ops",
            "--metrics-out --trace-out --timeline-out --series-out --series-cadence",
        ],
        modes: &[],
    },
    Command {
        name: "sweep",
        run: cmd_sweep,
        args: "",
        flags: &[
            PLAN_FLAGS,
            "--jobs --shard --trace-store --stream-chunk-ops --merge",
            "--out --json --metrics-out --timeline-out --series-out",
        ],
        modes: &[Mode {
            when: "--merge",
            flags: &["--merge --out --json"],
        }],
    },
    Command {
        name: "bench-core",
        run: cmd_bench_core,
        args: "",
        flags: &["--profile --ops --seed --reps --cache --l2 --out --json"],
        modes: &[],
    },
    Command {
        name: "perfdiff",
        run: cmd_perfdiff,
        args: "BASELINE.json CURRENT.json",
        flags: &["--fail-on-regress --ignore --json --out"],
        modes: &[],
    },
    Command {
        name: "watch",
        run: cmd_watch,
        args: "SERIES.jsonl",
        flags: &["--follow --rows"],
        modes: &[],
    },
    Command {
        name: "report-series",
        run: cmd_report_series,
        args: "SERIES.jsonl",
        flags: &[],
        modes: &[],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        args: "",
        flags: &[
            "--listen --checkpoint-dir --jobs --trace-store --stream-chunk-ops",
            "--log-out --timeline-out",
        ],
        modes: &[],
    },
    Command {
        name: "client",
        run: cmd_client,
        args: "ACTION",
        flags: &[PLAN_FLAGS, "--connect --job --wait --out --json --text"],
        modes: &[
            Mode {
                when: "submit",
                flags: &[PLAN_FLAGS, "--connect --wait --json --out"],
            },
            Mode {
                when: "status",
                flags: &["--connect --job"],
            },
            Mode {
                when: "fetch",
                flags: &["--connect --job --wait --json --out"],
            },
            Mode {
                when: "watch",
                flags: &["--connect --job"],
            },
            Mode {
                when: "cancel",
                flags: &["--connect --job"],
            },
            Mode {
                when: "health",
                flags: &["--connect"],
            },
            Mode {
                when: "metrics",
                flags: &["--connect --text --out"],
            },
            Mode {
                when: "shutdown",
                flags: &["--connect"],
            },
        ],
    },
    Command {
        name: "top",
        run: cmd_top,
        args: "",
        flags: &["--connect --interval-ms --once"],
        modes: &[],
    },
    Command {
        name: "check",
        run: cmd_check,
        args: "",
        flags: &[
            "--schemes --profiles --trace --ops --seed --cache --fuzz-rounds",
            "--jobs --shrink-out --trace-out",
        ],
        modes: &[Mode {
            when: "--trace",
            flags: &[
                "--schemes --trace --ops --seed --cache --fuzz-rounds",
                "--jobs --shrink-out --trace-out",
            ],
        }],
    },
];

impl Command {
    fn named(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }
}

/// Whether `flag` is one of the space-separated flags in `groups`.
fn lists(groups: &[&str], flag: &str) -> bool {
    groups
        .iter()
        .any(|group| group.split_whitespace().any(|f| f == flag))
}

/// Parses an integer flag value; `_` separators are allowed (`65_536`).
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .replace('_', "")
        .parse()
        .map_err(|_| format!("invalid {flag} value"))
}

/// [`number`], rejecting zero.
fn positive<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> Result<T, String> {
    let n: T = number(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

fn parse_geometry(flag: &str, spec: &str) -> Result<CacheGeometry, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("{flag} expects CAPKB,WAYS,BLOCKB, got `{spec}`"));
    }
    let nums: Result<Vec<u64>, _> = parts.iter().map(|p| p.parse::<u64>()).collect();
    let nums = nums.map_err(|_| format!("invalid {flag} numbers in `{spec}`"))?;
    CacheGeometry::new(nums[0] * 1024, nums[1], nums[2])
        .map_err(|e| format!("invalid {flag} geometry: {e}"))
}

/// Parses the arguments of `command`: each flag once, into [`Options`],
/// and rejects a flag the command, or its selected [`Mode`], does not
/// read.
fn parse(command: &Command, args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        ops: 100_000,
        seed: 42,
        fuzz_rounds: 10,
        reps: 3,
        // The sampler's `series.*` counter family is ignored by default
        // (at any path depth): its end-of-run totals are derivable from
        // the counters the gate already watches, so a sampled run must
        // diff clean against an unsampled baseline. `--ignore` extends
        // this list.
        ignore: perfdiff::DEFAULT_IGNORE_FAMILIES
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: 16,
        interval_ms: 1_000,
        ..Options::default()
    };
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            o.args.push(arg.clone());
            continue;
        }
        given.push(flag);
        if !lists(command.flags, flag) {
            return Err(format!(
                "{} does not take {flag} (it takes: {})",
                command.name,
                command.flags.join(" ")
            ));
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let list = |v: String| Some(v.split(',').map(str::to_string).collect());
        match flag {
            "--profile" => o.profile = Some(value()?),
            "--trace" => o.trace = Some(value()?),
            "--out" => o.out = Some(value()?),
            "--scheme" => o.scheme = Some(SchemeKind::parse(&value()?)?),
            "--ops" => o.ops = positive(flag, &value()?)?,
            "--seed" => o.seed = number(flag, &value()?)?,
            "--cache" => o.cache = parse_geometry(flag, &value()?)?,
            "--l2" => o.l2 = Some(parse_geometry(flag, &value()?)?),
            "--metrics-out" => o.metrics_out = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            "--timeline-out" => o.timeline_out = Some(value()?),
            "--series-out" => o.series_out = Some(value()?),
            "--series-cadence" => o.series_cadence = Some(positive(flag, &value()?)?),
            "--jobs" => o.jobs = positive(flag, &value()?)?,
            "--shard" => o.shard = Some(Shard::parse(&value()?)?),
            "--profiles" => o.profiles = list(value()?),
            "--geometries" => o.geometries = list(value()?),
            "--json" => o.json = true,
            "--trace-store" => o.trace_store = Some(value()?),
            "--merge" => o.merge.push(value()?),
            "--schemes" => o.schemes = Some(SchemeKind::parse_list(&value()?)?),
            "--fuzz-rounds" => o.fuzz_rounds = number(flag, &value()?)?,
            "--shrink-out" => o.shrink_out = Some(value()?),
            "--reps" => o.reps = positive(flag, &value()?)?,
            "--stream-chunk-ops" => o.stream_chunk_ops = Some(positive(flag, &value()?)?),
            "--fail-on-regress" => {
                let pct: f64 = value()?
                    .parse()
                    .map_err(|_| "invalid --fail-on-regress percentage".to_string())?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--fail-on-regress must be a non-negative percentage".to_string());
                }
                o.fail_on_regress = Some(pct);
            }
            "--ignore" => o.ignore.extend(value()?.split(',').map(str::to_string)),
            "--follow" => o.follow = true,
            "--rows" => o.rows = positive(flag, &value()?)?,
            "--listen" => o.listen = Some(value()?),
            "--checkpoint-dir" => o.checkpoint_dir = Some(value()?),
            "--log-out" => o.log_out = Some(value()?),
            "--connect" => o.connect = Some(value()?),
            "--job" => o.job = Some(value()?),
            "--wait" => o.wait = true,
            "--text" => o.text = true,
            "--interval-ms" => o.interval_ms = positive(flag, &value()?)?,
            "--once" => o.once = true,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let wanted = command.args.split_whitespace().count();
    if o.args.len() != wanted {
        return Err(if wanted == 0 {
            format!(
                "{} takes no arguments, got `{}`",
                command.name,
                o.args.join(" ")
            )
        } else {
            format!("{} needs exactly {}", command.name, command.args)
        });
    }
    let selects = |when: &str| given.contains(&when) || o.args.first().is_some_and(|a| a == when);
    if let Some(mode) = command.modes.iter().find(|m| selects(m.when)) {
        if let Some(flag) = given.iter().find(|f| !lists(mode.flags, f)) {
            return Err(format!(
                "{} {} does not take {flag} (it takes: {})",
                command.name,
                mode.when,
                mode.flags.join(" ")
            ));
        }
    }
    Ok(o)
}

/// The `--cache` L1 backend, over the `--l2` second level when given.
fn backend(o: &Options) -> CacheBackend {
    match o.l2 {
        Some(l2) => CacheBackend::with_l2(o.cache, l2, ReplacementKind::Lru),
        None => CacheBackend::new(o.cache, ReplacementKind::Lru),
    }
}

/// Where `--trace`/`--profile` point a command: exactly one is given.
enum TraceSource<'a> {
    File(&'a str),
    Profile(WorkloadProfile),
}

fn profile_named(name: &str) -> Result<WorkloadProfile, String> {
    profiles::by_name(name).ok_or_else(|| format!("unknown profile `{name}` (try list-profiles)"))
}

fn trace_source(o: &Options) -> Result<TraceSource<'_>, String> {
    match (&o.trace, &o.profile) {
        (Some(path), None) => Ok(TraceSource::File(path)),
        (None, Some(name)) => profile_named(name).map(TraceSource::Profile),
        (Some(_), Some(_)) => Err("--trace and --profile are mutually exclusive".to_string()),
        (None, None) => Err("need --trace FILE or --profile NAME".to_string()),
    }
}

fn load_or_generate(o: &Options) -> Result<Trace, String> {
    match trace_source(o)? {
        TraceSource::File(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            Trace::read_from(BufReader::new(file)).map_err(|e| format!("cannot read {path}: {e}"))
        }
        TraceSource::Profile(profile) => {
            Ok(
                ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), o.seed)
                    .collect(o.ops),
            )
        }
    }
}

/// Creates `path` and writes it through a buffer with `write`, flushing
/// before reporting success: a buffer dropped unflushed would lose the
/// error of its final write.
fn write_file(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    write(&mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_list_profiles(_: &Options) -> Result<(), String> {
    stdoutln!(
        "{:<12} {:>9} {:>9} {:>9} {:>8}",
        "name",
        "rd/instr",
        "wr/instr",
        "same-set",
        "silent"
    )?;
    for p in profiles::spec2006() {
        stdoutln!(
            "{:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>7.0}%",
            p.name,
            p.reads_per_instr() * 100.0,
            p.writes_per_instr() * 100.0,
            p.locality.total() * 100.0,
            p.silent_fraction * 100.0,
        )?;
    }
    Ok(())
}

fn cmd_gen(o: &Options) -> Result<(), String> {
    let out = o.out.as_ref().ok_or("gen requires --out FILE")?;
    let trace = load_or_generate(o)?;
    write_file(out, |w| trace.write_to(w))?;
    stdoutln!(
        "wrote {} ops ({} instructions) to {out}",
        trace.len(),
        trace.instructions()
    )?;
    Ok(())
}

fn cmd_analyze(o: &Options) -> Result<(), String> {
    let trace = load_or_generate(o)?;
    let stats = StreamStats::measure(&trace, o.cache);
    stdoutln!(
        "{} ops over {} instructions, {} distinct blocks in {} sets",
        trace.len(),
        trace.instructions(),
        stats.distinct_blocks,
        stats.distinct_sets
    )?;
    stdoutln!("{stats}")?;
    Ok(())
}

/// The `--series-out` file and its sampler, one window per
/// `--series-cadence` ops (default 65536). A cadence with no series to
/// write is an error.
fn series(o: &Options) -> Result<Option<(&str, SamplerConfig)>, String> {
    match (o.series_out.as_deref(), o.series_cadence) {
        (None, Some(_)) => Err("--series-cadence needs --series-out FILE".to_string()),
        (path, cadence) => Ok(path.map(|path| {
            let config = cadence.map_or_else(SamplerConfig::default, |n| {
                SamplerConfig::with_cadence(n as u64)
            });
            (path, config)
        })),
    }
}

/// `simulate`: replays one scheme over the materialized trace or, with
/// `--stream-chunk-ops N`, over a bounded-memory chunk stream — N-op
/// chunks generated (or read from the `.c8tt` file) on a prefetch thread
/// while replay consumes the previous one, so RSS stays flat at roughly
/// two chunks for any `--ops`. Both sources feed the same replay driver,
/// so the counters come out bit-identical.
fn cmd_simulate(o: &Options) -> Result<(), String> {
    let scheme = o.scheme.ok_or("simulate requires --scheme")?;
    let series = series(o)?;
    if o.timeline_out.is_some() {
        timeline::enable();
        timeline::set_track_name("main");
    }
    let read_error = Arc::new(Mutex::new(None));
    let trace;
    let (ops, total_ops) = match o.stream_chunk_ops {
        None => {
            trace = load_or_generate(o)?;
            (Ops::Trace(&trace), trace.len() as u64)
        }
        Some(chunk_ops) => match trace_source(o)? {
            TraceSource::File(path) => {
                let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                let reader = TraceFileReader::open(BufReader::new(file))
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let total_ops = reader.op_count();
                let chunks = FileChunks {
                    reader,
                    chunk_ops,
                    error: Arc::clone(&read_error),
                };
                (
                    Ops::Chunks(Box::new(PrefetchedChunks::spawn(chunks))),
                    total_ops,
                )
            }
            TraceSource::Profile(profile) => {
                let generator =
                    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), o.seed);
                let chunks = ChunkedGenerator::new(generator, chunk_ops, o.ops as u64);
                (
                    Ops::Chunks(Box::new(PrefetchedChunks::spawn(chunks))),
                    o.ops as u64,
                )
            }
        },
    };
    let mut controller = scheme.build_on(backend(o));
    // Stream each window straight to disk: a sampler with a writer
    // keeps no windows, so even a very long replay holds flat memory
    // while exporting its full telemetry history.
    let mut sampler = match series {
        Some((path, config)) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let bench = o
                .profile
                .clone()
                .or_else(|| o.trace.clone())
                .unwrap_or_default();
            Some(
                Sampler::new(&bench, controller.name(), config)
                    .with_writer(Box::new(BufWriter::new(file))),
            )
        }
        None => None,
    };
    let replayed = {
        let _span = Span::labelled("simulate.replay", "sim", || "replay".to_owned());
        replay(controller.as_mut(), ops, 0, sampler.as_mut())
    };
    let read_error = read_error.lock().expect("read-error slot poisoned").take();
    if let (Some(path), Some(e)) = (&o.trace, read_error) {
        return Err(format!("cannot read {path}: {e}"));
    }
    if let Err(e) = replayed {
        // The series writer is the replay's only I/O.
        let path = o.series_out.as_deref().unwrap_or_default();
        return Err(format!("cannot write {path}: {e}"));
    }
    if let (Some(path), Some(sampler)) = (&o.series_out, &sampler) {
        eprintln!(
            "telemetry series ({} windows) written to {path}",
            sampler.emitted()
        );
    }
    let streamed = o
        .stream_chunk_ops
        .map(|n| format!(", streamed x{n} chunks"))
        .unwrap_or_default();
    stdoutln!(
        "scheme {} on {} ops ({}KB/{}-way/{}B cache{streamed}):",
        controller.name(),
        total_ops,
        o.cache.capacity_bytes() / 1024,
        o.cache.ways(),
        o.cache.block_bytes()
    )?;
    stdoutln!("  {}", controller.traffic())?;
    stdoutln!("  requests: {}", controller.stats())?;
    write_observability(o, controller.as_ref())?;
    if let Some(path) = &o.timeline_out {
        write_timeline(path)?;
    }
    Ok(())
}

/// Chunk-at-a-time reads of a saved `.c8tt` trace for streamed replay
/// (see [`TraceFileReader::read_chunk`]). A mid-stream read error ends
/// the stream and lands in `error`, which `simulate` reports after
/// replay.
struct FileChunks {
    reader: TraceFileReader<BufReader<File>>,
    chunk_ops: usize,
    error: Arc<Mutex<Option<String>>>,
}

impl ChunkSource for FileChunks {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        match self.reader.read_chunk(self.chunk_ops) {
            Ok(chunk) => chunk.map(Arc::new),
            Err(e) => {
                *self.error.lock().expect("read-error slot poisoned") = Some(e.to_string());
                None
            }
        }
    }
}

/// Schemes `bench-core` measures, in display order. `coalesce:8`
/// stands in for the coalescing family at the paper's 8-entry depth.
const BENCH_CORE_SCHEMES: [SchemeKind; 5] = SchemeKind::suite(8);

/// `cache8t bench-core`: single-thread replay throughput of the
/// simulator core itself, one measurement per scheme over an identical
/// pre-generated trace. The JSON document is perfdiff-compatible, so CI
/// can gate it against `results/bench_core_baseline.json`.
fn cmd_bench_core(o: &Options) -> Result<(), String> {
    let name = o.profile.as_deref().unwrap_or("gcc");
    let profile = profile_named(name)?;
    let trace = ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), o.seed)
        .collect(o.ops);

    stdoutln!(
        "bench-core: {} ops of `{name}` (seed {}), best of {} rep(s) per scheme",
        trace.len(),
        o.seed,
        o.reps
    )?;
    stdoutln!("  {:<12} {:>12} {:>10}", "scheme", "ops/sec", "ms/rep")?;
    let mut throughput: Vec<(String, serde_json::Value)> = Vec::new();
    for scheme in BENCH_CORE_SCHEMES {
        let mut best = f64::INFINITY;
        for _ in 0..o.reps {
            let mut controller = scheme.build_on(backend(o));
            let start = std::time::Instant::now();
            // The production replay driver, decode included; a warm-up
            // equal to the trace length never fires the counter reset.
            let result = replay(controller.as_mut(), Ops::Trace(&trace), trace.len(), None)
                .map_err(|e| e.to_string())?;
            let elapsed = start.elapsed().as_secs_f64();
            // Keep the run observable so the replay loop cannot be
            // optimized out from under the timer.
            std::hint::black_box(result.array_accesses);
            best = best.min(elapsed);
        }
        let ops_per_sec = trace.len() as f64 / best;
        stdoutln!(
            "  {:<12} {:>12.0} {:>10.2}",
            scheme.spelling(),
            ops_per_sec,
            best * 1e3
        )?;
        throughput.push((
            scheme.spelling(),
            serde_json::json!({ "ops_per_sec": ops_per_sec.round() }),
        ));
    }
    let kernels_doc = bench_core_kernels(o, &profile, &trace)?;
    let doc = serde_json::Value::Object(vec![(
        "bench_core".to_string(),
        serde_json::Value::Object(vec![
            ("ops".to_string(), serde_json::to_value(&(o.ops as u64))),
            (
                "throughput".to_string(),
                serde_json::Value::Object(throughput),
            ),
            ("kernels".to_string(), kernels_doc),
        ]),
    )]);
    let text = pretty(&doc);
    emit(&text, "bench-core document", o.out.as_deref(), o.json)
}

/// Best-of-reps microbenches of the trace generator, of the individual
/// kernels the batched replay path is built from and of the
/// observability calls the controllers make per access, keyed
/// `bench_core.kernels.<name>` in the JSON document. One "op" is one
/// trace op for `generate`, `decode` and `probe`, one 64-bit word
/// compared for `silent_compare` and `diff_mask`, and one call for
/// `counter_inc` and `emit_off`.
fn bench_core_kernels(
    o: &Options,
    profile: &WorkloadProfile,
    trace: &Trace,
) -> Result<serde_json::Value, String> {
    fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    }

    // `generate`: the profiled generator producing the benchmark's own
    // trace, which is what feeds a streamed replay's prefetch thread.
    let generate_best = best_of(o.reps, || {
        let generated =
            ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), o.seed)
                .collect(o.ops);
        std::hint::black_box(generated.len());
    });

    // `decode`: the per-chunk address-decomposition pass.
    let mut scratch = DecodedBatch::new(o.cache);
    let decode_best = best_of(o.reps, || {
        scratch.decode(trace.ops());
        std::hint::black_box(scratch.len());
    });

    // `probe`: the branchless multi-way tag search over a warmed cache,
    // fed from the decoded set/tag columns like the controllers feed it.
    let mut warm = SchemeKind::Conventional.build_on(backend(o));
    warm.access_batch(&scratch, 0..scratch.len());
    let probe_best = best_of(o.reps, || {
        let cache = warm.cache();
        let mut found = 0u64;
        for i in 0..scratch.len() {
            found += u64::from(cache.find_in_set(scratch.set(i), scratch.tag(i)).is_some());
        }
        std::hint::black_box(found);
    });

    // Compare kernels run over block-granularity arenas with half the
    // blocks dirty in one word — the silent-store shape the WG deposit
    // and the coalescing merge see.
    let bw = o.cache.block_words();
    let blocks = 4096usize;
    let words = blocks * bw;
    let a: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut b = a.clone();
    for blk in (0..blocks).step_by(2) {
        b[blk * bw] ^= 1;
    }
    let passes = (trace.len() / words).max(1);
    let compared = (passes * words) as f64;
    let silent_best = best_of(o.reps, || {
        let mut differing = 0u64;
        for _ in 0..passes {
            for blk in 0..blocks {
                let base = blk * bw;
                differing += u64::from(kernels::words_differ(
                    &a[base..base + bw],
                    &b[base..base + bw],
                ));
            }
        }
        std::hint::black_box(differing);
    });
    let mask_best = best_of(o.reps, || {
        let mut acc = 0u64;
        for _ in 0..passes {
            for blk in 0..blocks {
                let base = blk * bw;
                acc ^= kernels::diff_mask(&a[base..base + bw], &b[base..base + bw]);
            }
        }
        std::hint::black_box(acc);
    });

    // `counter_inc` and `emit_off`: a registry counter increment and a
    // trace event the `Off` level rejects, the two observability calls
    // that stay on the replay hot path with tracing off.
    let mut registry = MetricRegistry::new();
    let counter = registry.counter("bench.hot_path");
    let inc_best = best_of(o.reps, || {
        for _ in 0..o.ops {
            registry.inc(std::hint::black_box(counter));
        }
    });
    let mut tracer = Tracer::new(TraceLevel::Off, 1);
    let emit_best = best_of(o.reps, || {
        for i in 0..o.ops as u64 {
            tracer.emit(std::hint::black_box(TraceEvent::new(
                i,
                Component::Wg,
                EventKind::GroupFlush,
                i,
                1,
            )));
        }
    });

    let rows = [
        ("generate", o.ops as f64 / generate_best),
        ("decode", trace.len() as f64 / decode_best),
        ("probe", trace.len() as f64 / probe_best),
        ("silent_compare", compared / silent_best),
        ("diff_mask", compared / mask_best),
        ("counter_inc", o.ops as f64 / inc_best),
        ("emit_off", o.ops as f64 / emit_best),
    ];
    stdoutln!("  {:<16} {:>10}", "kernel", "Mops/s")?;
    let mut out: Vec<(String, serde_json::Value)> = Vec::new();
    for (name, ops_per_sec) in rows {
        stdoutln!("  {:<16} {:>10.1}", name, ops_per_sec / 1e6)?;
        out.push((
            name.to_string(),
            serde_json::json!({ "mops_per_sec": (ops_per_sec / 1e6 * 10.0).round() / 10.0 }),
        ));
    }
    Ok(serde_json::Value::Object(out))
}

/// Honors `--timeline-out`: stops recording, drains the global
/// timeline, and writes it as Chrome trace-event JSON.
fn write_timeline(path: &str) -> Result<(), String> {
    timeline::disable();
    let snapshot = timeline::drain();
    write_file(path, |w| snapshot.write_chrome_json(w))?;
    eprintln!(
        "timeline ({} events on {} tracks) written to {path}",
        snapshot.event_count(),
        snapshot.tracks.len()
    );
    Ok(())
}

/// Honors `--metrics-out` / `--trace-out` after a simulate run.
fn write_observability(o: &Options, controller: &dyn Controller) -> Result<(), String> {
    let obs = controller.backend().obs();
    if let Some(path) = &o.metrics_out {
        write_file(path, |w| obs.registry().write_json(w))?;
        stdoutln!("  metrics snapshot written to {path}")?;
    }
    if let Some(path) = &o.trace_out {
        write_file(path, |w| obs.tracer().write_jsonl(w))?;
        stdoutln!(
            "  {} trace events written to {path} ({} dropped)",
            obs.tracer().len(),
            obs.tracer().dropped()
        )?;
    }
    Ok(())
}

/// A JSON document as the CLI writes it: pretty-printed, with a
/// trailing newline, so `sweep --out` and `client fetch --out` can be
/// `cmp`-ed.
fn pretty(doc: &serde_json::Value) -> String {
    let mut text = serde_json::to_string_pretty(doc).expect("JSON documents serialize");
    text.push('\n');
    text
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Writes `text` to `out`, noting the `what` on stderr, and prints it
/// when `print` is set.
fn emit(text: &str, what: &str, out: Option<&str>, print: bool) -> Result<(), String> {
    if let Some(path) = out {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("{what} written to {path}");
    }
    if print {
        stdout!("{text}")?;
    }
    Ok(())
}

/// `cache8t sweep --merge a.json --merge b.json`: reassemble shard
/// documents into the document an unsharded run produces.
fn cmd_sweep_merge(o: &Options) -> Result<(), String> {
    let docs: Vec<serde_json::Value> = o
        .merge
        .iter()
        .map(|path| read_json(path))
        .collect::<Result<_, String>>()?;
    let merged = merge_documents(&docs)?;
    if o.out.is_none() && !o.json {
        return Err("merge mode needs --out FILE or --json".to_string());
    }
    emit(&pretty(&merged), "sweep document", o.out.as_deref(), o.json)
}

/// The plan the plan flags ([`PLAN_FLAGS`]) describe: what `sweep`
/// runs and `client submit` sends. By default, all 25 profiles at all
/// four geometries.
fn plan_spec(o: &Options) -> PlanSpec {
    PlanSpec {
        profiles: o
            .profiles
            .clone()
            .unwrap_or_else(|| profiles::names().into_iter().map(str::to_string).collect()),
        geometries: o.geometries.clone().unwrap_or_else(|| {
            ["baseline", "blocks64", "small", "large"]
                .map(str::to_string)
                .to_vec()
        }),
        ops: o.ops,
        seed: o.seed,
        series_cadence: o.series_cadence,
    }
}

/// [`plan_spec`], resolved against the profile and geometry tables.
fn resolve_plan(o: &Options) -> Result<SweepPlan, String> {
    plan_spec(o).resolve().map_err(|e| e.message)
}

fn exec_options(o: &Options) -> ExecOptions {
    ExecOptions {
        workers: o.jobs,
        ..ExecOptions::default()
    }
}

/// The trace store `--trace-store DIR|off` selects; by default without
/// disk backing, unless `CACHE8T_TRACE_STORE` names a directory.
fn trace_store(o: &Options) -> Arc<TraceStore> {
    Arc::new(match o.trace_store.as_deref() {
        Some("off") => TraceStore::in_memory(),
        Some(dir) => TraceStore::persistent(dir),
        None => TraceStore::from_env(),
    })
}

fn cmd_sweep(o: &Options) -> Result<(), String> {
    if !o.merge.is_empty() {
        return cmd_sweep_merge(o);
    }

    let plan = resolve_plan(o)?;
    let options = SweepOptions {
        exec: exec_options(o),
        slots: o.shard.map(|shard| shard.slots(plan.benchmark_count())),
        progress: true,
        store: trace_store(o),
        series: series(o)?.map(|(_, config)| config),
        stream_chunk_ops: o.stream_chunk_ops,
        ..SweepOptions::default()
    };

    if o.timeline_out.is_some() {
        timeline::enable();
        timeline::set_track_name("main");
    }
    let outcome = run_sweep(&plan, &options);

    stdoutln!(
        "sweep: {} benchmarks x {} geometries, {} ops each, seed {} ({} workers, {:.1}s)",
        plan.profiles.len(),
        plan.geometries.len(),
        plan.ops,
        plan.seed,
        options.exec.effective_workers(),
        outcome.elapsed.as_secs_f64(),
    )?;
    for g in &outcome.geometries {
        let done: Vec<&BenchmarkResult> = g.results.iter().flatten().collect();
        if done.is_empty() {
            stdoutln!("  {:<9} (no benchmarks in this shard)", g.point.label)?;
            continue;
        }
        stdoutln!(
            "  {:<9} {:>2}/{} benchmarks   WG avg {:>5.1}%   WG+RB avg {:>5.1}%",
            g.point.label,
            done.len(),
            plan.profiles.len(),
            average(&done, BenchmarkResult::wg_reduction) * 100.0,
            average(&done, BenchmarkResult::wgrb_reduction) * 100.0,
        )?;
    }
    for f in &outcome.failures {
        eprintln!("FAILED {}/{}: {}", f.geometry, f.benchmark, f.message);
    }
    stdoutln!("\n[sweep engine]")?;
    stdout!("{}", outcome.metrics.render_table())?;
    if !outcome.spans.is_empty() {
        stdoutln!("\n[worker spans]")?;
        stdout!("{}", timeline::render_stats(&outcome.spans))?;
    }

    if let Some(path) = &o.metrics_out {
        let text = pretty(&metrics_document(&outcome));
        emit(&text, "metrics document", Some(path), false)?;
    }
    if let Some(path) = &o.timeline_out {
        write_timeline(path)?;
    }
    if let Some(path) = &o.series_out {
        // Plan order, never completion order: the JSONL is
        // byte-identical for any --jobs value.
        let mut rows = 0u64;
        write_file(path, |w| {
            for sample in outcome.series() {
                writeln!(w, "{}", sample.to_json_line())?;
                rows += 1;
            }
            Ok(())
        })?;
        eprintln!("telemetry series ({rows} windows) written to {path}");
    }

    let document = pretty(&to_document(&plan, &outcome));
    emit(&document, "sweep document", o.out.as_deref(), o.json)?;

    if outcome.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} benchmark(s) failed", outcome.failures.len()))
    }
}

/// Formats a metric value compactly: integers without a fraction,
/// everything else with three decimals.
fn fmt_metric(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value}")
    } else {
        format!("{value:.3}")
    }
}

fn fmt_relative(m: &perfdiff::MetricDelta) -> String {
    match m.class() {
        perfdiff::DeltaClass::New => "(new)".to_string(),
        perfdiff::DeltaClass::Gone => "(gone)".to_string(),
        _ => format!(
            "{:+.1}%",
            m.relative().expect("finite for changed rows") * 100.0
        ),
    }
}

/// `cache8t perfdiff baseline.json current.json`: align two metric
/// snapshots by name and report the drift (see `cache8t_obs::perfdiff`).
fn cmd_perfdiff(o: &Options) -> Result<(), String> {
    let diff = perfdiff::diff(&read_json(&o.args[0])?, &read_json(&o.args[1])?);
    let threshold = o.fail_on_regress.unwrap_or(5.0) / 100.0;
    let report = diff.to_value(threshold, &o.ignore);

    if !o.json {
        stdoutln!(
            "{} aligned metrics ({} changed), {} only in baseline, {} only in current",
            diff.deltas.len(),
            diff.changed().len(),
            diff.only_baseline.len(),
            diff.only_current.len()
        )?;
        let mut changed = diff.changed();
        // Biggest relative movers first; new/gone rows (no percentage)
        // sink to the bottom instead of poisoning the sort with
        // non-finite keys.
        changed.sort_by(|a, b| {
            let key = |m: &perfdiff::MetricDelta| m.relative().map(f64::abs);
            match (key(a), key(b)) {
                (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => a.name.cmp(&b.name),
            }
        });
        if !changed.is_empty() {
            const MAX_ROWS: usize = 50;
            let mut table = cache8t_bench::table::Table::new(&[
                "metric", "baseline", "current", "delta", "rel",
            ]);
            for m in changed.iter().take(MAX_ROWS) {
                table.row(&[
                    m.name.clone(),
                    fmt_metric(m.baseline),
                    fmt_metric(m.current),
                    fmt_metric(m.delta()),
                    fmt_relative(m),
                ]);
            }
            stdout!("{}", table.render())?;
            if changed.len() > MAX_ROWS {
                stdoutln!("... and {} more changed metrics", changed.len() - MAX_ROWS)?;
            }
        }
    }
    let text = pretty(&report);
    emit(&text, "perfdiff report", o.out.as_deref(), o.json)?;

    let regressions = diff.regressions(threshold, &o.ignore);
    if regressions.is_empty() {
        return Ok(());
    }
    let mut msg = format!(
        "{} metric(s) drifted beyond {:.1}%:",
        regressions.len(),
        threshold * 100.0
    );
    for m in &regressions {
        msg.push_str(&format!(
            "\n  {}: {} -> {} ({})",
            m.name,
            fmt_metric(m.baseline),
            fmt_metric(m.current),
            fmt_relative(m)
        ));
    }
    if o.fail_on_regress.is_some() {
        Err(msg)
    } else {
        eprintln!("warning: {msg}");
        Ok(())
    }
}

/// Parses every well-formed series row of `text`, counting the rest.
fn parse_series_text(text: &str) -> (Vec<SeriesSample>, u64) {
    let mut samples = Vec::new();
    let mut malformed = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match sampler::parse_series_line(line) {
            Some(sample) => samples.push(sample),
            None => malformed += 1,
        }
    }
    (samples, malformed)
}

/// Reads the series rows of `path`, counting malformed lines; a file
/// without a single row is an error.
fn read_series(path: &str) -> Result<(Vec<SeriesSample>, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (samples, malformed) = parse_series_text(&text);
    if samples.is_empty() {
        return Err(format!("{path}: no series rows found"));
    }
    Ok((samples, malformed))
}

/// Renders the `watch` dashboard: the most recent `rows` windows plus a
/// totals line. `mops` is consumer-derived wall-clock throughput
/// (`--follow` arrival times) — series rows themselves never carry
/// wall-clock, so it is `None` for one-shot renders.
fn render_watch(samples: &[SeriesSample], rows: usize, mops: Option<f64>) -> String {
    let recent = &samples[samples.len().saturating_sub(rows)..];
    let mut table = cache8t_bench::table::Table::new(&[
        "bench", "scheme", "window", "ops", "miss%", "silent%", "wb", "grp%", "occ",
    ]);
    for s in recent {
        table.row(&[
            s.bench.clone(),
            s.scheme.clone(),
            s.window.to_string(),
            s.ops().to_string(),
            format!("{:.2}", s.miss_rate() * 100.0),
            format!("{:.2}", s.silent_rate() * 100.0),
            s.writeback_traffic().to_string(),
            format!("{:.1}", s.grouping_efficiency() * 100.0),
            format!("{:.2}", s.mean_occupancy()),
        ]);
    }
    let total_ops: u64 = samples.iter().map(SeriesSample::ops).sum();
    let mean = |f: fn(&SeriesSample) -> f64| -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(f).sum::<f64>() / samples.len() as f64
        }
    };
    table.summary(&[
        "total".to_string(),
        String::new(),
        format!("{} win", samples.len()),
        total_ops.to_string(),
        format!("{:.2}", mean(SeriesSample::miss_rate) * 100.0),
        format!("{:.2}", mean(SeriesSample::silent_rate) * 100.0),
        samples
            .iter()
            .map(SeriesSample::writeback_traffic)
            .sum::<u64>()
            .to_string(),
        format!("{:.1}", mean(SeriesSample::grouping_efficiency) * 100.0),
        format!("{:.2}", mean(SeriesSample::mean_occupancy)),
    ]);
    let mut rendered = table.render();
    if let Some(mops) = mops {
        if mops.is_finite() && mops > 0.0 {
            rendered.push_str(&format!("live: {mops:.1} Mops/s\n"));
        }
    }
    rendered
}

/// The windows `watch --follow` holds: the most recent ones, which its
/// table and totals are drawn from.
const FOLLOW_WINDOWS: usize = 512;

/// Drains the complete series rows currently readable from `reader`
/// into `samples` (bounded to `cap`), returning the ops they cover.
///
/// A final line without its newline is a *partially-written* row — the
/// producer is mid-append, or mid-crash. Its bytes stay in `pending`
/// and the next poll resumes reading the same row where this one
/// stopped, so `--follow` never misparses (or drops) a torn row it
/// raced the producer for.
fn drain_series_rows(
    reader: &mut impl BufRead,
    pending: &mut String,
    samples: &mut Vec<SeriesSample>,
    cap: usize,
) -> std::io::Result<u64> {
    let mut new_ops = 0u64;
    loop {
        let n = reader.read_line(pending)?;
        if n == 0 {
            return Ok(new_ops); // at EOF for now; more may be appended
        }
        if !pending.ends_with('\n') {
            return Ok(new_ops); // torn row: keep the prefix, retry later
        }
        if let Some(sample) = sampler::parse_series_line(pending.trim_end()) {
            new_ops += sample.ops();
            samples.push(sample);
            if samples.len() > cap {
                samples.remove(0);
            }
        }
        pending.clear();
    }
}

/// `cache8t watch SERIES.jsonl [--follow] [--rows N]`: a rolling
/// dashboard over a telemetry series. One-shot by default; `--follow`
/// tails the file and repaints as a live replay appends windows,
/// deriving Mops/s from window *arrival* times (the rows themselves are
/// deterministic and carry no wall-clock).
fn cmd_watch(o: &Options) -> Result<(), String> {
    let path = &o.args[0];
    if !o.follow {
        let (samples, malformed) = read_series(path)?;
        stdout!("{}", render_watch(&samples, o.rows, None))?;
        if malformed > 0 {
            eprintln!("warning: skipped {malformed} malformed line(s)");
        }
        return Ok(());
    }

    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let mut samples: Vec<SeriesSample> = Vec::new();
    let mut line = String::new();
    let mut last_paint = std::time::Instant::now();
    let mut painted_once = false;
    loop {
        let new_ops = drain_series_rows(
            &mut reader,
            &mut line,
            &mut samples,
            o.rows.max(FOLLOW_WINDOWS),
        )
        .map_err(|e| format!("cannot read {path}: {e}"))?;
        if new_ops > 0 || !painted_once {
            let elapsed = last_paint.elapsed().as_secs_f64();
            let mops = (painted_once && elapsed > 0.0).then(|| new_ops as f64 / elapsed / 1e6);
            last_paint = std::time::Instant::now();
            painted_once = true;
            // Clear and repaint in place, like a full-screen progress
            // line.
            stdout!("\x1b[2J\x1b[H{}", render_watch(&samples, o.rows, mops))?;
            if stdout_closed() {
                return Ok(());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

/// Absolute miss-rate tolerance separating two phases in
/// `report-series`.
const PHASE_TOLERANCE: f64 = 0.02;

/// Width sparkline rows are downsampled to.
const SPARK_WIDTH: usize = 60;

/// Mean-bucket downsampling to at most `max` points.
fn downsample(values: &[f64], max: usize) -> Vec<f64> {
    if values.len() <= max {
        return values.to_vec();
    }
    (0..max)
        .map(|bucket| {
            let start = bucket * values.len() / max;
            let end = ((bucket + 1) * values.len() / max).max(start + 1);
            values[start..end].iter().sum::<f64>() / (end - start) as f64
        })
        .collect()
}

/// `cache8t report-series SERIES.jsonl`: phase-resolved summary per
/// (bench, scheme) group — phases are maximal window runs whose miss
/// rate stays within [`PHASE_TOLERANCE`] of the phase mean — plus
/// sparkline rows of the full miss/occupancy/write-back history.
fn cmd_report_series(o: &Options) -> Result<(), String> {
    let (samples, malformed) = read_series(&o.args[0])?;

    // Group by (bench, scheme), preserving first-appearance order.
    let mut groups: Vec<((String, String), Vec<&SeriesSample>)> = Vec::new();
    for sample in &samples {
        let key = (sample.bench.clone(), sample.scheme.clone());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, list)) => list.push(sample),
            None => groups.push((key, vec![sample])),
        }
    }

    for ((bench, scheme), group) in &groups {
        let label = if bench.is_empty() {
            scheme.clone()
        } else {
            format!("{bench} / {scheme}")
        };
        let total_ops: u64 = group.iter().map(|s| s.ops()).sum();
        stdoutln!("{label}: {} windows, {total_ops} ops", group.len())?;

        let miss: Vec<f64> = group.iter().map(|s| s.miss_rate()).collect();
        let phases = sampler::segment_phases(&miss, PHASE_TOLERANCE);
        let mut table = cache8t_bench::table::Table::new(&[
            "phase", "windows", "ops", "miss%", "silent%", "wb/win", "grp%", "occ",
        ]);
        for (i, &(start, end)) in phases.iter().enumerate() {
            let span = &group[start..end];
            let n = span.len() as f64;
            let mean = |f: &dyn Fn(&SeriesSample) -> f64| -> f64 {
                span.iter().map(|s| f(s)).sum::<f64>() / n
            };
            table.row(&[
                format!("{i}"),
                format!("{start}..{end}"),
                span.iter().map(|s| s.ops()).sum::<u64>().to_string(),
                format!("{:.2}", mean(&SeriesSample::miss_rate) * 100.0),
                format!("{:.2}", mean(&SeriesSample::silent_rate) * 100.0),
                format!(
                    "{:.1}",
                    span.iter().map(|s| s.writeback_traffic()).sum::<u64>() as f64 / n
                ),
                format!("{:.1}", mean(&SeriesSample::grouping_efficiency) * 100.0),
                format!("{:.2}", mean(&SeriesSample::mean_occupancy)),
            ]);
        }
        stdout!("{}", table.render())?;

        let spark_row = |name: &str, values: Vec<f64>| {
            stdoutln!(
                "  {name:<6} {}",
                sampler::sparkline(&downsample(&values, SPARK_WIDTH))
            )
        };
        spark_row("miss%", miss)?;
        spark_row("occ", group.iter().map(|s| s.mean_occupancy()).collect())?;
        spark_row(
            "wb",
            group.iter().map(|s| s.writeback_traffic() as f64).collect(),
        )?;
        stdoutln!()?;
    }
    if malformed > 0 {
        eprintln!("warning: skipped {malformed} malformed line(s)");
    }
    Ok(())
}

/// One checked replay unit — a profile, a saved trace, or a fuzz round
/// — together with everything needed to diagnose and shrink a failure.
struct CheckUnit {
    label: String,
    report: ConformReport,
    trace: Trace,
    config: ConformConfig,
}

/// Traces longer than this are not delta-debugged on failure: the
/// greedy pass replays the trace once per removed op, which is
/// prohibitive for full-length profile streams.
const MAX_SHRINK_OPS: usize = 20_000;

/// `cache8t check`: lockstep differential replay of every scheme
/// against a golden memory, over the checked-in profiles (or one saved
/// trace) plus seeded fuzz rounds; failures are shrunk to `.c8tt`
/// reproducers.
fn cmd_check(o: &Options) -> Result<(), String> {
    let mut config = ConformConfig::new(o.cache);
    if let Some(schemes) = &o.schemes {
        config.schemes = schemes.clone();
    }
    let exec = exec_options(o);

    // Phase 1: deterministic replays — one saved trace, or the profiles.
    let mut units: Vec<CheckUnit> = Vec::new();
    if let Some(path) = &o.trace {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let trace = Trace::read_from(BufReader::new(file))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = conform::replay(&trace, &config);
        units.push(CheckUnit {
            label: format!("trace {path}"),
            report,
            trace,
            config: config.clone(),
        });
    } else {
        // `--profiles` resolves as it does in a sweep plan.
        let jobs: Vec<_> = resolve_plan(o)?
            .profiles
            .into_iter()
            .map(|profile| {
                let config = config.clone();
                let (cache, seed, ops) = (o.cache, o.seed, o.ops);
                move || {
                    let trace = ProfiledGenerator::new(profile.clone(), cache, seed).collect(ops);
                    let report = conform::replay(&trace, &config);
                    CheckUnit {
                        label: format!("profile {}", profile.name),
                        report,
                        trace,
                        config: config.clone(),
                    }
                }
            })
            .collect();
        for outcome in run_jobs(jobs, &exec, None, None).outcomes {
            match outcome {
                JobOutcome::Completed(unit) => units.push(unit),
                JobOutcome::Failed { message, .. } => {
                    return Err(format!("replay job panicked: {message}"))
                }
                // No cancel token is wired here; drained jobs cannot
                // happen, but the harness must not vanish units silently.
                JobOutcome::Cancelled => return Err("replay job cancelled".to_string()),
            }
        }
    }
    let deterministic_units = units.len();

    // Phase 2: seeded fuzz rounds on a small, conflict-heavy geometry.
    let mut fuzz_config = config.clone();
    fuzz_config.geometry = CacheGeometry::new(1024, 2, 32).expect("fuzz geometry is valid");
    let fuzz_ops = o.ops.min(4000);
    let fuzz_jobs: Vec<_> = (0..o.fuzz_rounds)
        .map(|round| {
            let config = fuzz_config.clone();
            let seed = o.seed.wrapping_add(round as u64);
            move || {
                let (trace, report) = fuzz::fuzz_round(seed, fuzz_ops, &config);
                CheckUnit {
                    label: format!("fuzz seed {seed}"),
                    report,
                    trace,
                    config: config.clone(),
                }
            }
        })
        .collect();
    for outcome in run_jobs(fuzz_jobs, &exec, None, None).outcomes {
        match outcome {
            JobOutcome::Completed(unit) => units.push(unit),
            JobOutcome::Failed { message, .. } => {
                return Err(format!("fuzz job panicked: {message}"))
            }
            JobOutcome::Cancelled => return Err("fuzz job cancelled".to_string()),
        }
    }

    // Diagnose failures: print divergences, shrink, emit reproducers.
    let repro_dir = o
        .shrink_out
        .clone()
        .unwrap_or_else(|| fuzz::DEFAULT_REPRO_DIR.to_string());
    let mut divergent = 0usize;
    for unit in &units {
        if unit.report.pass() {
            continue;
        }
        divergent += 1;
        eprintln!("DIVERGED {}: {}", unit.label, unit.report.summary());
        const MAX_SHOWN: usize = 5;
        for d in unit.report.divergences.iter().take(MAX_SHOWN) {
            eprintln!("  {d}");
        }
        let hidden =
            unit.report.suppressed + unit.report.divergences.len().saturating_sub(MAX_SHOWN) as u64;
        if hidden > 0 {
            eprintln!("  ... and {hidden} more divergence(s)");
        }
        if unit.trace.len() > MAX_SHRINK_OPS {
            eprintln!(
                "  trace too long to shrink ({} ops > {MAX_SHRINK_OPS}); re-run with fewer --ops",
                unit.trace.len()
            );
        } else if let Some(repro) = fuzz::shrink(&unit.trace, &unit.config) {
            match fuzz::write_repro(std::path::Path::new(&repro_dir), &unit.label, &repro) {
                Ok(path) => eprintln!(
                    "  shrunk to {} op(s); reproducer written to {} (replay with `cache8t check --trace`)",
                    repro.len(),
                    path.display()
                ),
                Err(e) => eprintln!("  cannot write reproducer: {e}"),
            }
        }
    }

    if let Some(path) = &o.trace_out {
        write_file(path, |w| {
            units
                .iter()
                .try_for_each(|unit| unit.report.write_trace_jsonl(&mut *w))
        })?;
        eprintln!("divergence events written to {path}");
    }

    stdoutln!(
        "check: {deterministic_units} deterministic unit(s) + {} fuzz round(s) x {} scheme(s), seed {}",
        o.fuzz_rounds,
        config.schemes.len(),
        o.seed
    )?;
    if divergent == 0 {
        stdoutln!("conformance: PASS ({} unit(s) clean)", units.len())?;
        Ok(())
    } else {
        Err(format!(
            "conformance: FAIL ({divergent} of {} unit(s) diverged)",
            units.len()
        ))
    }
}

/// `cache8t serve --listen ADDR`: run the sweep daemon until a client
/// sends `shutdown`. Operational logging goes to `--log-out` (JSONL)
/// or stderr, filtered by `CACHE8T_LOG` (error/warn/info/debug, off to
/// silence); `--timeline-out` records every job's lifecycle as a
/// Perfetto-loadable trace written at shutdown.
fn cmd_serve(o: &Options) -> Result<(), String> {
    let listen = o
        .listen
        .as_deref()
        .ok_or("serve requires --listen ADDR (host:port or unix:/path)")?;
    let level = cache8t::obs::LogLevel::from_env();
    let oplog = match &o.log_out {
        Some(path) => cache8t::obs::OpLog::to_file(std::path::Path::new(path), level)
            .map_err(|e| format!("cannot open {path}: {e}"))?,
        None => cache8t::obs::OpLog::to_stderr(level),
    };
    if o.timeline_out.is_some() {
        timeline::enable();
    }
    let server = Server::bind(ServeConfig {
        listen: listen.to_string(),
        checkpoint_dir: o.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        exec: exec_options(o),
        store: trace_store(o),
        oplog: Arc::new(oplog),
        stream_chunk_ops: o.stream_chunk_ops,
    })
    .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!("cache8t serve: listening on {}", server.local_addr());
    server.run().map_err(|e| format!("server error: {e}"))?;
    if let Some(path) = &o.timeline_out {
        write_timeline(path)?;
    }
    Ok(())
}

fn require_job(o: &Options) -> Result<&str, String> {
    o.job
        .as_deref()
        .ok_or_else(|| format!("client {} requires --job ID", o.args[0]))
}

/// `cache8t client --connect ADDR <action>`: one protocol round trip
/// (or, for `watch`, a streamed session) against a running daemon.
fn cmd_client(o: &Options) -> Result<(), String> {
    let connect = o
        .connect
        .as_deref()
        .ok_or("client requires --connect ADDR (host:port or unix:/path)")?;
    let describe = |e: ClientError| e.to_string();
    // Fetched documents carry the bytes `cache8t sweep --out` writes,
    // so the two can be `cmp`-ed directly.
    let emit_document = |doc: &serde_json::Value| {
        let print = o.json || o.out.is_none();
        emit(&pretty(doc), "sweep document", o.out.as_deref(), print)
    };
    let mut client = Client::connect_with_retry(connect, std::time::Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {connect}: {e}"))?;
    match o.args[0].as_str() {
        "submit" => {
            let job = client.submit(&plan_spec(o)).map_err(describe)?;
            eprintln!("submitted {job}");
            if o.wait {
                let document = client.wait_for_results(&job).map_err(describe)?;
                emit_document(&document)?;
            } else {
                stdoutln!("{job}")?;
            }
            Ok(())
        }
        "status" => {
            let status = client.status(o.job.as_deref()).map_err(describe)?;
            stdout!("{}", pretty(&status))?;
            Ok(())
        }
        "fetch" => {
            let job = require_job(o)?;
            let document = if o.wait {
                client.wait_for_results(job).map_err(describe)?
            } else {
                client.results(job).map_err(describe)?
            };
            emit_document(&document)
        }
        "watch" => {
            let job = require_job(o)?;
            // The resumable wrapper reconnects with backoff if the
            // daemon connection drops mid-stream, resuming from the
            // last delivered sequence number — a long watch survives
            // network blips without replaying (or losing) events.
            drop(client);
            let mut written = Ok(());
            let state = cache8t::serve::watch_resumable(connect, job, |row| {
                let line = serde_json::to_string(row).expect("event rows serialize");
                if written.is_ok() {
                    written = stdoutln!("{line}");
                }
            })
            .map_err(describe)?;
            written?;
            if state == "failed" {
                Err(format!("job {job} failed"))
            } else {
                Ok(())
            }
        }
        "cancel" => {
            let job = require_job(o)?;
            let response = client.cancel(job).map_err(describe)?;
            stdout!("{}", pretty(&response))?;
            Ok(())
        }
        "health" => {
            let health = client.health().map_err(describe)?;
            stdout!("{}", pretty(&health))?;
            Ok(())
        }
        "metrics" => {
            let metrics = client.metrics().map_err(describe)?;
            let text = if o.text {
                // Prometheus exposition of the registry snapshot.
                cache8t::serve::render_metrics_text(&metrics)
            } else {
                pretty(&metrics)
            };
            emit(&text, "metrics", o.out.as_deref(), o.out.is_none())
        }
        "shutdown" => {
            client.shutdown().map_err(describe)?;
            eprintln!("server {connect} shutting down");
            Ok(())
        }
        other => Err(format!(
            "unknown client action `{other}` (expected submit, status, fetch, watch, cancel, health, metrics, shutdown)"
        )),
    }
}

fn format_uptime(ms: u64) -> String {
    let s = ms / 1000;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// One frame of the `cache8t top` dashboard: daemon vitals, fleet
/// counters, and a per-job table, all read from one `health` +
/// `metrics` + `status` poll. `rates` carries request and journal
/// throughput derived from the previous poll.
fn render_top(
    addr: &str,
    health: &serde_json::Value,
    metrics: &serde_json::Value,
    status: &serde_json::Value,
    rates: Option<(f64, f64)>,
) -> String {
    use serde_json::Value;
    let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_owned();
    let u64_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let server = metrics.get("server").cloned().unwrap_or(Value::Null);

    let mut out = format!(
        "cache8t top — {addr} · {} · up {} · queue {} · {} active\n",
        str_of(health, "state"),
        format_uptime(u64_of(health, "uptime_ms")),
        u64_of(health, "queue_depth"),
        u64_of(health, "jobs_active"),
    );

    let jobs = server.get("jobs").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "jobs     queued {} · running {} · completed {} · failed {} · cancelled {}\n",
        u64_of(&jobs, "queued"),
        u64_of(&jobs, "running"),
        u64_of(&jobs, "completed"),
        u64_of(&jobs, "failed"),
        u64_of(&jobs, "cancelled"),
    ));

    let journal = server.get("journal").cloned().unwrap_or(Value::Null);
    let journal_line = if journal.get("enabled").and_then(Value::as_bool) == Some(true) {
        format!(
            "journal  {} file(s) · {} bytes{} · {} repair(s)\n",
            u64_of(&journal, "files"),
            u64_of(&journal, "bytes"),
            rates
                .map(|(_, bps)| format!(" ({bps:+.0} B/s)"))
                .unwrap_or_default(),
            u64_of(&journal, "repairs"),
        )
    } else {
        "journal  disabled\n".to_owned()
    };
    out.push_str(&journal_line);

    let store = server.get("trace_store").cloned().unwrap_or(Value::Null);
    let ratio = store
        .get("hit_ratio")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    out.push_str(&format!(
        "store    {} generated · {} disk hits · {:.1}% warm\n",
        u64_of(&store, "generated"),
        u64_of(&store, "disk_hits"),
        ratio * 100.0,
    ));

    let oplog = server.get("oplog").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "oplog    {} emitted · {} suppressed · {} dropped\n",
        u64_of(&oplog, "emitted"),
        u64_of(&oplog, "suppressed"),
        u64_of(&oplog, "dropped"),
    ));

    let counters = metrics
        .get("registry")
        .and_then(|r| r.get("counters"))
        .cloned()
        .unwrap_or(Value::Null);
    out.push_str(&format!(
        "reqs     {} total{} · {} error(s)\n",
        u64_of(&counters, "serve.requests"),
        rates
            .map(|(rps, _)| format!(" ({rps:.1}/s)"))
            .unwrap_or_default(),
        u64_of(&counters, "serve.errors"),
    ));

    out.push_str("\nJOB        STATE      PROGRESS             RESTORED\n");
    let listed = status.get("jobs").and_then(Value::as_array).unwrap_or(&[]);
    if listed.is_empty() {
        out.push_str("(no jobs submitted yet)\n");
    }
    for job in listed {
        let progress = match job.get("progress") {
            Some(p) => {
                let done = u64_of(p, "done");
                let total = u64_of(p, "total");
                match p.get("mops").and_then(Value::as_f64) {
                    Some(mops) => format!("{done}/{total} ({mops:.1} Mops/s)"),
                    None => format!("{done}/{total}"),
                }
            }
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<10} {:<10} {:<20} {}\n",
            str_of(job, "id"),
            str_of(job, "state"),
            progress,
            u64_of(job, "restored"),
        ));
    }
    out
}

/// `cache8t top --connect ADDR`: a live, daemon-wide dashboard — the
/// fleet-level counterpart of `cache8t client watch`'s single-job
/// stream. Repaints every `--interval-ms` (default 1000); `--once`
/// prints a single frame and exits. Transport drops in follow mode
/// reconnect with the same retry the client uses.
fn cmd_top(o: &Options) -> Result<(), String> {
    let connect = o
        .connect
        .as_deref()
        .ok_or("top requires --connect ADDR (host:port or unix:/path)")?;
    let describe = |e: ClientError| e.to_string();
    let mut client = Client::connect_with_retry(connect, std::time::Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {connect}: {e}"))?;
    let mut prev: Option<(std::time::Instant, u64, u64)> = None;
    loop {
        let poll = (|| -> Result<_, ClientError> {
            let health = client.health()?;
            let metrics = client.metrics()?;
            let status = client.status(None)?;
            Ok((health, metrics, status))
        })();
        let (health, metrics, status) = match poll {
            Ok(frame) => frame,
            Err(e @ (ClientError::Server { .. } | ClientError::Malformed(_))) => {
                return Err(describe(e));
            }
            Err(e) if o.once => return Err(describe(e)),
            Err(_) => {
                // Daemon restarting or network blip: reconnect and
                // keep the dashboard alive.
                client = Client::connect_with_retry(connect, std::time::Duration::from_secs(30))
                    .map_err(|e| format!("lost connection to {connect}: {e}"))?;
                prev = None;
                continue;
            }
        };
        let total_requests = metrics
            .get("registry")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get("serve.requests"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        let journal_bytes = metrics
            .get("server")
            .and_then(|s| s.get("journal"))
            .and_then(|j| j.get("bytes"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        let rates = prev.map(|(at, reqs, bytes)| {
            let dt = at.elapsed().as_secs_f64().max(1e-9);
            (
                total_requests.saturating_sub(reqs) as f64 / dt,
                (journal_bytes as f64 - bytes as f64) / dt,
            )
        });
        let frame = render_top(connect, &health, &metrics, &status, rates);
        if o.once {
            stdout!("{frame}")?;
            return Ok(());
        }
        stdout!("\x1b[2J\x1b[H{frame}")?;
        if stdout_closed() {
            return Ok(());
        }
        prev = Some((std::time::Instant::now(), total_requests, journal_bytes));
        std::thread::sleep(std::time::Duration::from_millis(o.interval_ms));
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(name) = args.get(1) else {
        return Err(USAGE.to_string());
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return Err(USAGE.to_string());
    }
    let command =
        Command::named(name).ok_or_else(|| format!("unknown command `{name}`\n\n{USAGE}"))?;
    (command.run)(&parse(command, &args[2..])?)
}

fn main() -> ExitCode {
    match run(std::env::args().collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `cache8t args..` as [`run`] would: `args[0]` names the
    /// command.
    fn opts(args: &[&str]) -> Result<Options, String> {
        let rest: Vec<String> = args[1..].iter().map(|s| s.to_string()).collect();
        parse(Command::named(args[0]).expect("a known command"), &rest)
    }

    /// Runs `cache8t args..`.
    fn exec(args: &[impl AsRef<str>]) -> Result<(), String> {
        let argv = std::iter::once("cache8t").chain(args.iter().map(|a| a.as_ref()));
        run(argv.map(str::to_string).collect())
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = opts(&["gen"]).unwrap();
        assert_eq!(o.ops, 100_000);
        assert_eq!(o.seed, 42);
        let o = opts(&["gen", "--profile", "gcc", "--ops", "5_000", "--seed", "7"]).unwrap();
        assert_eq!(o.profile.as_deref(), Some("gcc"));
        assert_eq!(o.ops, 5_000);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn parse_cache_spec() {
        let o = opts(&["simulate", "--cache", "32,4,64"]).unwrap();
        assert_eq!(o.cache.capacity_bytes(), 32 * 1024);
        assert_eq!(o.cache.block_bytes(), 64);
        assert!(o.l2.is_none());
        let o = opts(&["simulate", "--l2", "512,8,32"]).unwrap();
        assert_eq!(o.l2.unwrap().capacity_bytes(), 512 * 1024);
        assert!(opts(&["simulate", "--cache", "32,4"]).is_err());
        assert!(opts(&["simulate", "--cache", "31,4,64"]).is_err());
        assert!(opts(&["simulate", "--cache", "a,b,c"]).is_err());
    }

    #[test]
    fn parse_observability_flags() {
        let o = opts(&[
            "simulate",
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.jsonl",
            "--timeline-out",
            "tl.json",
        ])
        .unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(o.timeline_out.as_deref(), Some("tl.json"));
        assert!(opts(&["simulate", "--metrics-out"]).is_err());
        assert!(opts(&["simulate", "--timeline-out"]).is_err());
    }

    #[test]
    fn simulate_writes_metrics_snapshot() {
        let dir = std::env::temp_dir().join("cache8t-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json").to_string_lossy().to_string();
        let o = opts(&[
            "simulate",
            "--scheme",
            "wg",
            "--profile",
            "gcc",
            "--ops",
            "2000",
            "--metrics-out",
            &path,
        ])
        .unwrap();
        cmd_simulate(&o).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rendered = serde_json::to_string(&value).unwrap();
        assert!(rendered.contains("wg.groups"));
        assert!(rendered.contains("wg.group_len"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(opts(&["sweep", "--ops"]).is_err());
        assert!(opts(&["sweep", "--ops", "0"]).is_err());
        assert!(opts(&["sweep", "--bogus"]).is_err());
        assert!(opts(&["sweep", "--jobs", "0"]).is_err());
        assert!(opts(&["sweep", "--shard", "3/2"]).is_err());
        assert!(opts(&["sweep", "--shard", "nope"]).is_err());
        assert!(opts(&["sweep", "stray"]).is_err());
        // A flag the command would ignore is an error naming the flag.
        for (command, flag) in [
            ("gen", "--series-out"),
            ("gen", "--trace"),
            ("simulate", "--shard"),
            ("simulate", "--profiles"),
            ("bench-core", "--trace"),
            ("check", "--profile"),
            ("list-profiles", "--ops"),
        ] {
            let err = opts(&[command, flag, "1"]).unwrap_err();
            assert!(err.contains(flag), "{command} {flag}: {err}");
        }
        // So is a flag the selected mode would ignore, naming both.
        for (args, mode, flag) in [
            (
                &["sweep", "--merge", "a.json", "--ops", "9"][..],
                "--merge",
                "--ops",
            ),
            (
                &["check", "--trace", "t.c8tt", "--profiles", "gcc"],
                "--trace",
                "--profiles",
            ),
            (&["client", "status", "--wait"], "status", "--wait"),
            (&["client", "fetch", "--ops", "9"], "fetch", "--ops"),
            (&["client", "submit", "--job", "job-1"], "submit", "--job"),
            (&["client", "metrics", "--json"], "metrics", "--json"),
            (&["client", "health", "--out", "h.json"], "health", "--out"),
            (&["client", "watch", "--text"], "watch", "--text"),
        ] {
            let err = opts(args).unwrap_err();
            assert!(
                err.contains(&format!("{mode} does not take {flag}")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn parse_sweep_flags() {
        let o = opts(&[
            "sweep",
            "--jobs",
            "4",
            "--shard",
            "1/2",
            "--profiles",
            "gcc,mcf",
            "--geometries",
            "baseline,small",
            "--json",
            "--trace-store",
            "off",
            "--stream-chunk-ops",
            "65_536",
        ])
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.stream_chunk_ops, Some(65_536));
        assert!(
            opts(&["sweep", "--stream-chunk-ops", "0"]).is_err(),
            "zero chunk size must be rejected"
        );
        assert_eq!(o.shard, Some(Shard { index: 0, count: 2 }));
        assert_eq!(
            o.profiles.as_deref(),
            Some(&["gcc".into(), "mcf".into()][..])
        );
        assert_eq!(
            o.geometries.as_deref(),
            Some(&["baseline".into(), "small".into()][..])
        );
        assert!(o.json);
        assert_eq!(o.trace_store.as_deref(), Some("off"));
        // Merge mode reads only its sinks.
        let o = opts(&[
            "sweep", "--merge", "a.json", "--merge", "b.json", "--json", "--out", "m.json",
        ])
        .unwrap();
        assert_eq!(o.merge, vec!["a.json".to_string(), "b.json".to_string()]);
        assert!(o.json);
        assert_eq!(o.out.as_deref(), Some("m.json"));
    }

    #[test]
    fn sweep_runs_a_small_plan() {
        let mut o = opts(&[
            "sweep",
            "--profiles",
            "gcc",
            "--geometries",
            "baseline",
            "--ops",
            "2000",
            "--jobs",
            "2",
            "--trace-store",
            "off",
        ])
        .unwrap();
        let dir = std::env::temp_dir().join("cache8t-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json").to_string_lossy().to_string();
        o.out = Some(path.clone());
        cmd_sweep(&o).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let geometries = doc.get("geometries").and_then(|g| g.as_array()).unwrap();
        assert_eq!(geometries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    fn pd_opts(args: &[&str]) -> Result<Options, String> {
        opts(&[&["perfdiff"], args].concat())
    }

    #[test]
    fn parse_perfdiff_flags() {
        let o = pd_opts(&[
            "base.json",
            "cur.json",
            "--fail-on-regress",
            "5",
            "--ignore",
            "sweep.,bench.",
            "--json",
            "--out",
            "report.json",
        ])
        .unwrap();
        assert_eq!(o.args, ["base.json", "cur.json"]);
        assert_eq!(o.fail_on_regress, Some(5.0));
        // `--ignore` extends the default `series.` + `serve.` families.
        assert_eq!(
            o.ignore,
            vec![
                "series.".to_string(),
                "serve.".to_string(),
                "sweep.".to_string(),
                "bench.".to_string()
            ]
        );
        assert!(o.json);
        assert_eq!(o.out.as_deref(), Some("report.json"));

        assert!(pd_opts(&[]).is_err(), "needs two positionals");
        assert!(pd_opts(&["only.json"]).is_err());
        assert!(pd_opts(&["a.json", "b.json", "c.json"]).is_err());
        assert!(pd_opts(&["a.json", "b.json", "--bogus"]).is_err());
        assert!(pd_opts(&["a.json", "b.json", "--fail-on-regress", "x"]).is_err());
        assert!(pd_opts(&["a.json", "b.json", "--fail-on-regress", "-1"]).is_err());
    }

    #[test]
    fn perfdiff_gates_on_threshold() {
        let dir = std::env::temp_dir().join("cache8t-cli-perfdiff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let report = dir.join("report.json");
        std::fs::write(&base, r#"{"wg": {"groups": 100}, "noise": 10}"#).unwrap();
        std::fs::write(&cur, r#"{"wg": {"groups": 120}, "noise": 10}"#).unwrap();
        let to_args = |extra: &[&str]| {
            let mut v = vec![
                "perfdiff".to_string(),
                base.to_string_lossy().to_string(),
                cur.to_string_lossy().to_string(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };

        // 20% drift: fails a 5% gate, passes a 25% one.
        assert!(exec(&to_args(&["--fail-on-regress", "5"])).is_err());
        assert!(exec(&to_args(&["--fail-on-regress", "25"])).is_ok());
        // Ignoring the family passes even the tight gate.
        assert!(exec(&to_args(&["--fail-on-regress", "5", "--ignore", "wg."])).is_ok());
        // Report-only mode never fails, and --out writes machine JSON.
        let report_arg = report.to_string_lossy().to_string();
        assert!(exec(&to_args(&["--out", &report_arg])).is_ok());
        let text = std::fs::read_to_string(&report).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("compared").and_then(serde_json::Value::as_u64),
            Some(2)
        );
        let regressions = doc
            .get("regressions")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].as_str(), Some("wg.groups"));
        // Missing files are reported, not panicked on.
        assert!(exec(&["perfdiff", "missing.json", &report_arg]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_check_flags() {
        let o = opts(&["check"]).unwrap();
        assert!(o.schemes.is_none());
        assert_eq!(o.fuzz_rounds, 10);
        assert!(o.shrink_out.is_none());
        let o = opts(&[
            "check",
            "--schemes",
            "wg,WG+RB",
            "--fuzz-rounds",
            "25",
            "--shrink-out",
            "repros",
        ])
        .unwrap();
        assert_eq!(o.schemes, Some(vec![SchemeKind::Wg, SchemeKind::WgRb]));
        assert_eq!(o.fuzz_rounds, 25);
        assert_eq!(o.shrink_out.as_deref(), Some("repros"));
        assert!(opts(&["check", "--fuzz-rounds", "many"]).is_err());
        assert!(opts(&["check", "--schemes"]).is_err());
    }

    #[test]
    fn check_passes_on_a_small_suite() {
        let mut o = opts(&[
            "check",
            "--profiles",
            "gcc,mcf",
            "--ops",
            "1500",
            "--fuzz-rounds",
            "2",
            "--jobs",
            "2",
            "--cache",
            "1,2,32",
        ])
        .unwrap();
        cmd_check(&o).unwrap();
        // An unknown profile or a malformed scheme list is a clean error.
        o.profiles = Some(vec!["nope".to_string()]);
        assert!(cmd_check(&o).is_err());
        assert!(opts(&["check", "--schemes", "warp-drive"]).is_err());
    }

    #[test]
    fn check_replays_a_saved_trace() {
        let dir = std::env::temp_dir().join("cache8t-cli-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("small.c8tt").to_string_lossy().to_string();
        let events_path = dir.join("events.jsonl").to_string_lossy().to_string();
        let mut o = opts(&[
            "gen",
            "--profile",
            "gcc",
            "--ops",
            "800",
            "--out",
            &trace_path,
        ])
        .unwrap();
        cmd_gen(&o).unwrap();
        o = opts(&[
            "check",
            "--trace",
            &trace_path,
            "--fuzz-rounds",
            "1",
            "--ops",
            "800",
            "--cache",
            "1,2,32",
            "--trace-out",
            &events_path,
        ])
        .unwrap();
        cmd_check(&o).unwrap();
        // A clean run still writes the (empty) event stream.
        let text = std::fs::read_to_string(&events_path).unwrap();
        assert!(text.is_empty(), "clean runs emit no divergence events");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_merge_requires_a_sink() {
        let mut o = opts(&["sweep", "--merge", "a.json"]).unwrap();
        assert!(cmd_sweep(&o).is_err()); // no --out/--json
        o.json = true;
        assert!(cmd_sweep(&o).is_err()); // a.json does not exist
    }

    // The only timeline-touching test in this binary: the timeline is
    // global, so concurrent drains in one test process would race.
    #[test]
    fn sweep_writes_timeline_and_metrics_documents() {
        let dir = std::env::temp_dir().join("cache8t-cli-timeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let timeline_path = dir.join("timeline.json").to_string_lossy().to_string();
        let metrics_path = dir.join("metrics.json").to_string_lossy().to_string();
        // Two profiles: a sweep runs one job per profile, and the pool
        // starts no more workers than it has jobs.
        let mut o = opts(&[
            "sweep",
            "--profiles",
            "gcc,mcf",
            "--geometries",
            "baseline",
            "--ops",
            "2000",
            "--jobs",
            "2",
            "--trace-store",
            "off",
        ])
        .unwrap();
        o.timeline_out = Some(timeline_path.clone());
        o.metrics_out = Some(metrics_path.clone());
        cmd_sweep(&o).unwrap();

        let text = std::fs::read_to_string(&timeline_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("Chrome trace-event envelope");
        assert!(!events.is_empty());
        let track_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(track_names.contains(&"worker-0"), "{track_names:?}");
        assert!(track_names.contains(&"worker-1"), "{track_names:?}");

        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(doc.get("schemes").is_some());
        assert!(doc.get("sweep").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_requires_exactly_one_source() {
        let mut o = opts(&["simulate"]).unwrap();
        assert!(load_or_generate(&o).is_err());
        o.profile = Some("gcc".to_string());
        o.trace = Some("x.bin".to_string());
        assert!(load_or_generate(&o).is_err());
    }

    #[test]
    fn generate_and_reload_roundtrip() {
        let dir = std::env::temp_dir().join("cache8t-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.c8tt").to_string_lossy().to_string();
        let o = opts(&["gen", "--profile", "gcc", "--ops", "500", "--out", &path]).unwrap();
        cmd_gen(&o).unwrap();
        let o2 = opts(&["simulate", "--trace", &path]).unwrap();
        let trace = load_or_generate(&o2).unwrap();
        assert_eq!(trace.len(), 500);
        cmd_analyze(&o2).unwrap();
        let mut o3 = o2;
        o3.scheme = Some(SchemeKind::WgRb);
        cmd_simulate(&o3).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_dispatches_commands() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(run(to_args(&["cache8t"])).is_err());
        assert!(run(to_args(&["cache8t", "help"])).is_err());
        assert!(run(to_args(&["cache8t", "nope"])).is_err());
        assert!(run(to_args(&["cache8t", "list-profiles"])).is_ok());
        assert!(
            run(to_args(&["cache8t", "simulate"])).is_err(),
            "missing scheme"
        );
        assert!(
            run(to_args(&["cache8t", "watch"])).is_err(),
            "missing series file"
        );
        assert!(
            run(to_args(&["cache8t", "report-series", "no-such.jsonl"])).is_err(),
            "missing file is a clean error"
        );
    }

    #[test]
    fn every_listed_flag_is_parsed() {
        for command in COMMANDS {
            for flag in command.flags.iter().flat_map(|g| g.split_whitespace()) {
                // "1" is a wrong value for some flags, but the error is
                // never that the flag is unknown.
                if let Err(e) = opts(&[command.name, flag, "1"]) {
                    assert!(!e.starts_with("unknown flag"), "{}: {e}", command.name);
                }
            }
            // A mode reads a subset of its subcommand's flags.
            for mode in command.modes {
                for flag in mode.flags.iter().flat_map(|g| g.split_whitespace()) {
                    assert!(
                        lists(command.flags, flag),
                        "{} {}: {flag}",
                        command.name,
                        mode.when
                    );
                }
            }
        }
    }

    /// The flags `text` names: every `--name` token, however it is
    /// punctuated (`[--ops N]`, `--out/--json`).
    fn named_flags(text: &str) -> std::collections::BTreeSet<&str> {
        let mut flags = std::collections::BTreeSet::new();
        let mut rest = text;
        while let Some(at) = rest.find("--") {
            let tail = &rest[at..];
            let len = 2 + tail[2..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(tail.len() - 2);
            flags.insert(&tail[..len]);
            rest = &tail[len..];
        }
        flags
    }

    #[test]
    fn usage_names_exactly_the_flags_each_command_reads() {
        // A command's usage block is its line in the command list (two
        // spaces, then the name) plus the indented lines that follow,
        // up to the next command; `sweep --merge` has a block of its own.
        let mut blocks: Vec<(&str, String)> = Vec::new();
        let commands = USAGE.split_once("commands:\n").expect("command list").1;
        for line in commands.lines().take_while(|l| l.starts_with(' ')) {
            match line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                Some(start) => {
                    let name = start.split_whitespace().next().expect("command name");
                    blocks.push((name, start[name.len()..].to_owned()));
                }
                None => blocks.last_mut().expect("a command block").1 += line,
            }
        }
        for command in COMMANDS {
            let usage: String = blocks
                .iter()
                .filter(|(name, _)| *name == command.name)
                .map(|(_, text)| text.as_str())
                .collect();
            let listed: std::collections::BTreeSet<&str> = command
                .flags
                .iter()
                .flat_map(|g| g.split_whitespace())
                .collect();
            assert_eq!(named_flags(&usage), listed, "usage of {}", command.name);
        }
        assert!(
            blocks
                .iter()
                .all(|(name, _)| Command::named(name).is_some()),
            "usage lists a command the table does not"
        );
    }

    #[test]
    fn parse_series_flags() {
        let o = opts(&["simulate"]).unwrap();
        assert!(o.series_out.is_none());
        assert!(o.series_cadence.is_none());
        let o = opts(&[
            "simulate",
            "--series-out",
            "s.jsonl",
            "--series-cadence",
            "1_024",
        ])
        .unwrap();
        assert_eq!(o.series_out.as_deref(), Some("s.jsonl"));
        assert_eq!(o.series_cadence, Some(1024));
        assert!(opts(&["simulate", "--series-out"]).is_err());
        assert!(opts(&["simulate", "--series-cadence", "0"]).is_err());
        assert!(opts(&["simulate", "--series-cadence", "soon"]).is_err());
        // A cadence without a series to write is an error.
        assert!(series(&opts(&["sweep", "--series-cadence", "7"]).unwrap()).is_err());
    }

    #[test]
    fn parse_series_cli_flags() {
        let o = opts(&["watch", "s.jsonl"]).unwrap();
        assert_eq!(o.args, ["s.jsonl"]);
        assert!(!o.follow);
        assert_eq!(o.rows, 16);
        let o = opts(&["watch", "--follow", "--rows", "5", "s.jsonl"]).unwrap();
        assert!(o.follow);
        assert_eq!(o.rows, 5);
        // `--follow` is a watch-only flag.
        assert!(opts(&["report-series", "--follow", "s.jsonl"]).is_err());
        assert!(opts(&["watch"]).is_err());
        assert!(opts(&["watch", "a.jsonl", "b.jsonl"]).is_err());
        assert!(opts(&["watch", "--rows", "0", "s.jsonl"]).is_err());
        assert!(opts(&["watch", "--rows"]).is_err());
        assert!(opts(&["watch", "--bogus", "s.jsonl"]).is_err());
    }

    #[test]
    fn simulate_writes_series_jsonl() {
        let dir = std::env::temp_dir().join("cache8t-cli-sim-series-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.jsonl").to_string_lossy().to_string();
        let mut o = opts(&[
            "simulate",
            "--profile",
            "gcc",
            "--ops",
            "3000",
            "--series-cadence",
            "512",
        ])
        .unwrap();
        o.scheme = Some(SchemeKind::Wg);
        o.series_out = Some(path.clone());
        cmd_simulate(&o).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let samples: Vec<SeriesSample> = text
            .lines()
            .map(|l| sampler::parse_series_line(l).expect("every line parses"))
            .collect();
        assert!(!samples.is_empty());
        assert_eq!(samples[0].bench, "gcc");
        assert_eq!(samples[0].scheme, "WG");
        // Windows tile the op stream with no gaps, ending at the last op.
        assert_eq!(samples[0].op_start, 0);
        for pair in samples.windows(2) {
            assert_eq!(pair[0].op_end, pair[1].op_start);
        }
        assert_eq!(samples.last().unwrap().op_end, 3000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_series_is_deterministic_and_renderable() {
        let dir = std::env::temp_dir().join("cache8t-cli-sweep-series-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |jobs: &str, file: &str| -> String {
            let path = dir.join(file).to_string_lossy().to_string();
            let out = dir.join(format!("{file}.sweep.json"));
            let mut o = opts(&[
                "sweep",
                "--profiles",
                "gcc",
                "--geometries",
                "baseline",
                "--ops",
                "4000",
                "--jobs",
                jobs,
                "--trace-store",
                "off",
                "--series-cadence",
                "256",
            ])
            .unwrap();
            o.series_out = Some(path.clone());
            o.out = Some(out.to_string_lossy().to_string());
            cmd_sweep(&o).unwrap();
            path
        };
        let a = run_once("1", "j1.jsonl");
        let b = run_once("2", "j2.jsonl");
        let bytes_a = std::fs::read(&a).unwrap();
        let bytes_b = std::fs::read(&b).unwrap();
        assert!(!bytes_a.is_empty());
        assert_eq!(
            bytes_a, bytes_b,
            "series output must be byte-identical across --jobs"
        );

        // Schema shape: every row is a v1 object with the documented keys.
        let text = String::from_utf8(bytes_a).unwrap();
        for line in text.lines() {
            let doc: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(doc.get("v").and_then(serde_json::Value::as_str), Some("1"));
            for key in [
                "bench",
                "scheme",
                "window",
                "op_start",
                "op_end",
                "deltas",
                "occupancy",
            ] {
                assert!(doc.get(key).is_some(), "row missing `{key}`: {line}");
            }
            let sample = sampler::parse_series_line(line).expect("round-trips");
            assert!(sample.op_end > sample.op_start);
            assert_eq!(sample.bench, "baseline/gcc");
        }

        // Both consumers render the stream without error.
        exec(&["watch", &a, "--rows", "8"]).unwrap();
        exec(&["report-series", &a]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Adds nested `series.*` counters (the shape sweep metric documents
    /// get from sampled runs) to every `counters` section, with values
    /// from `value`.
    fn inject_series_counters(doc: &mut serde_json::Value, value: u64) {
        if let serde_json::Value::Object(entries) = doc {
            for (key, v) in entries.iter_mut() {
                if key == "counters" {
                    if let serde_json::Value::Object(counters) = v {
                        counters.push((
                            "series.set_heat.00".to_string(),
                            serde_json::Value::U64(value),
                        ));
                        counters.push((
                            "series.windows".to_string(),
                            serde_json::Value::U64(value / 2 + 1),
                        ));
                    }
                } else {
                    inject_series_counters(v, value);
                }
            }
        }
    }

    #[test]
    fn series_bearing_document_diffs_clean_against_baseline() {
        let dir = std::env::temp_dir().join("cache8t-cli-series-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = "results/baseline_metrics.json";
        let text = std::fs::read_to_string(baseline).expect("checked-in baseline");

        // A current document that grew series.* counters diffs clean
        // against the checked-in baseline even with a tight gate: the
        // default ignore families cover the telemetry-only names.
        let mut cur_doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        inject_series_counters(&mut cur_doc, 999);
        let cur = dir.join("cur.json").to_string_lossy().to_string();
        std::fs::write(&cur, serde_json::to_string(&cur_doc).unwrap()).unwrap();
        let args = |base: &str, cur: &str| {
            vec![
                "perfdiff".to_string(),
                base.to_string(),
                cur.to_string(),
                "--fail-on-regress".to_string(),
                "0.1".to_string(),
            ]
        };
        exec(&args(baseline, &cur)).unwrap();

        // Even drift *within* the series family stays ignored — the
        // segment-anchored match covers nested scheme counters.
        let mut base_doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        inject_series_counters(&mut base_doc, 100);
        let base = dir.join("base.json").to_string_lossy().to_string();
        std::fs::write(&base, serde_json::to_string(&base_doc).unwrap()).unwrap();
        exec(&args(&base, &cur)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn downsample_buckets_preserve_shape() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let d = downsample(&v, 10);
        assert_eq!(d.len(), 10);
        assert!(d.windows(2).all(|w| w[0] < w[1]), "{d:?}");
        assert_eq!(downsample(&v, 200), v);
        assert!(downsample(&[], 10).is_empty());
    }

    /// One well-formed v1 series row (used by the watch tests).
    fn series_row(window: u64, start: u64) -> String {
        format!(
            concat!(
                r#"{{"v":"1","bench":"gcc","scheme":"WG","window":{},"#,
                r#""op_start":{},"op_end":{},"deltas":{{"cache.line_fills":10,"#,
                r#""ctrl.reads":60,"ctrl.writes":40,"wg.grouped_writes":30}},"#,
                r#""occupancy":[1,2,3]}}"#
            ),
            window,
            start,
            start + 100
        )
    }

    #[test]
    fn follow_tolerates_a_partially_written_final_row() {
        use std::io::Cursor;
        let full = series_row(0, 0);
        let torn = series_row(1, 100);
        let (head, tail) = torn.split_at(torn.len() / 2);

        // First poll races the producer mid-append: one complete row
        // plus the front half of the next, no trailing newline.
        let mut samples = Vec::new();
        let mut pending = String::new();
        let mut reader = Cursor::new(format!("{full}\n{head}"));
        let ops = drain_series_rows(&mut reader, &mut pending, &mut samples, 64).unwrap();
        assert_eq!(samples.len(), 1, "only the complete row parses");
        assert_eq!(ops, 100);
        assert_eq!(pending, head, "the torn prefix is kept, not dropped");

        // Next poll sees the rest of the row (and one more): the torn
        // row is completed from its kept prefix and parses cleanly.
        let mut reader = Cursor::new(format!("{tail}\n{}\n", series_row(2, 200)));
        let ops = drain_series_rows(&mut reader, &mut pending, &mut samples, 64).unwrap();
        assert_eq!(ops, 200);
        assert_eq!(samples.len(), 3, "the once-torn row is not lost");
        assert_eq!(samples[1].window, 1);
        assert_eq!(samples[2].window, 2);
        assert!(pending.is_empty());

        // The ring bound still applies.
        let mut reader = Cursor::new(format!("{}\n", series_row(3, 300)));
        drain_series_rows(&mut reader, &mut pending, &mut samples, 3).unwrap();
        assert_eq!(samples.len(), 3, "capped");
        assert_eq!(samples[0].window, 1, "oldest row evicted");
    }

    #[test]
    fn parse_serve_and_client_flags() {
        let o = opts(&[
            "serve",
            "--listen",
            "unix:/tmp/c8t.sock",
            "--checkpoint-dir",
            "ckpt",
            "--jobs",
            "4",
            "--log-out",
            "ops.jsonl",
            "--timeline-out",
            "daemon.json",
            "--stream-chunk-ops",
            "1048576",
        ])
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("unix:/tmp/c8t.sock"));
        assert_eq!(o.stream_chunk_ops, Some(1_048_576));
        assert_eq!(o.checkpoint_dir.as_deref(), Some("ckpt"));
        assert_eq!(o.jobs, 4);
        assert_eq!(o.log_out.as_deref(), Some("ops.jsonl"));
        assert_eq!(o.timeline_out.as_deref(), Some("daemon.json"));
        assert!(exec(&["serve"]).is_err(), "listen is required");
        assert!(opts(&["serve", "--listen", "x", "--bogus"]).is_err());

        let o = opts(&[
            "client",
            "--connect",
            "127.0.0.1:9000",
            "submit",
            "--profiles",
            "gcc,mcf",
            "--geometries",
            "baseline",
            "--ops",
            "5_000",
            "--series-cadence",
            "512",
            "--wait",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.args, ["submit"]);
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:9000"));
        assert!(o.wait && o.json);
        let plan = plan_spec(&o);
        assert_eq!(plan.profiles, vec!["gcc".to_string(), "mcf".to_string()]);
        assert_eq!(plan.geometries, vec!["baseline".to_string()]);
        assert_eq!(plan.ops, 5_000);
        assert_eq!(plan.series_cadence, Some(512));
        // Defaults cover the full suite, like `cache8t sweep`.
        let o = opts(&["client", "--connect", "h:1", "submit"]).unwrap();
        let plan = plan_spec(&o);
        assert_eq!(plan.profiles.len(), 25);
        assert_eq!(plan.geometries.len(), 4);
        // `sweep` reads the same plan flags into the same plan.
        assert_eq!(plan, plan_spec(&opts(&["sweep"]).unwrap()));
        let flags = ["--profiles", "mcf", "--ops", "9000", "--seed", "3"];
        let sweep = opts(&[&["sweep"], &flags[..]].concat()).unwrap();
        let submit = opts(&[&["client", "submit"], &flags[..]].concat()).unwrap();
        assert_eq!(plan_spec(&sweep), plan_spec(&submit));

        assert!(exec(&["client", "submit"]).is_err(), "needs --connect");
        assert!(
            opts(&["client", "--connect", "h:1"]).is_err(),
            "needs an action"
        );
        assert!(opts(&["client", "--connect", "h:1", "a", "b"]).is_err());
        let o = opts(&["client", "--connect", "h:1", "fetch"]).unwrap();
        assert!(require_job(&o).is_err(), "fetch needs --job");
        let o = opts(&["client", "--connect", "h:1", "metrics", "--text"]).unwrap();
        assert_eq!(o.args, ["metrics"]);
        assert!(o.text);
    }

    #[test]
    fn parse_top_flags() {
        let o = opts(&[
            "top",
            "--connect",
            "127.0.0.1:9000",
            "--interval-ms",
            "250",
            "--once",
        ])
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(o.interval_ms, 250);
        assert!(o.once);
        let o = opts(&["top", "--connect", "h:1"]).unwrap();
        assert_eq!(o.interval_ms, 1_000, "default repaint interval");
        assert!(exec(&["top"]).is_err(), "connect is required");
        assert!(opts(&["top", "--connect", "h:1", "--interval-ms", "0"]).is_err());
        assert!(opts(&["top", "--connect", "h:1", "--bogus"]).is_err());
    }

    #[test]
    fn top_dashboard_renders_vitals_and_job_table() {
        let health: serde_json::Value = serde_json::from_str(
            r#"{"state":"ok","uptime_ms":125000,"queue_depth":1,"jobs_active":2}"#,
        )
        .unwrap();
        let metrics: serde_json::Value = serde_json::from_str(
            r#"{"server":{"jobs":{"queued":1,"running":1,"completed":3,"failed":0,"cancelled":0},
                "journal":{"enabled":true,"files":2,"bytes":4096,"repairs":1},
                "trace_store":{"generated":4,"disk_hits":12,"hit_ratio":0.75},
                "oplog":{"emitted":40,"suppressed":2,"dropped":0}},
                "registry":{"counters":{"serve.requests":17,"serve.errors":1}}}"#,
        )
        .unwrap();
        let status: serde_json::Value = serde_json::from_str(
            r#"{"jobs":[
                {"id":"job-1","state":"completed","restored":2},
                {"id":"job-2","state":"running","restored":0,
                 "progress":{"done":3,"total":8,"mops":2.5}}]}"#,
        )
        .unwrap();
        let frame = render_top("h:1", &health, &metrics, &status, Some((4.0, 128.0)));
        assert!(
            frame.contains("ok · up 2m05s · queue 1 · 2 active"),
            "{frame}"
        );
        assert!(
            frame.contains("queued 1 · running 1 · completed 3"),
            "{frame}"
        );
        assert!(
            frame.contains("2 file(s) · 4096 bytes (+128 B/s) · 1 repair(s)"),
            "{frame}"
        );
        assert!(
            frame.contains("4 generated · 12 disk hits · 75.0% warm"),
            "{frame}"
        );
        assert!(
            frame.contains("40 emitted · 2 suppressed · 0 dropped"),
            "{frame}"
        );
        assert!(frame.contains("17 total (4.0/s) · 1 error(s)"), "{frame}");
        assert!(
            frame.contains("job-2      running    3/8 (2.5 Mops/s)"),
            "{frame}"
        );
        assert!(frame.contains("job-1      completed"), "{frame}");

        // An idle daemon renders the empty-table hint, no rates.
        let empty: serde_json::Value = serde_json::from_str(r#"{"jobs":[]}"#).unwrap();
        let frame = render_top("h:1", &health, &metrics, &empty, None);
        assert!(frame.contains("(no jobs submitted yet)"), "{frame}");
        assert!(!frame.contains("B/s"), "{frame}");
    }

    #[test]
    fn uptime_formats_scale() {
        assert_eq!(format_uptime(4_000), "4s");
        assert_eq!(format_uptime(125_000), "2m05s");
        assert_eq!(format_uptime(7_380_000), "2h03m");
    }

    #[test]
    fn watch_renders_recent_windows_and_totals() {
        let line = series_row;
        let text: String = (0..4).map(|i| line(i, i * 100) + "\n").collect();
        let (samples, malformed) = parse_series_text(&(text + "not json\n"));
        assert_eq!(samples.len(), 4);
        assert_eq!(malformed, 1);
        let rendered = render_watch(&samples, 2, Some(12.5));
        // Only the two most recent windows appear as rows.
        assert_eq!(rendered.matches("gcc").count(), 2, "{rendered}");
        assert!(rendered.contains("WG"), "{rendered}");
        assert!(rendered.contains("4 win"), "{rendered}");
        assert!(rendered.contains("live: 12.5 Mops/s"), "{rendered}");
    }
}
