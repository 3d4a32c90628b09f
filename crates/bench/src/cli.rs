//! Tiny argument parsing shared by the harness binaries.
//!
//! One dependency-free parser knows every harness flag, and each binary
//! passes it the flags it reads; any other flag is an error naming it
//! (exit status 2), so a flag is never accepted and then ignored:
//!
//! - `--ops N` — measured operations per benchmark (default 2,000,000);
//! - `--seed S` — generator seed (default 42);
//! - `--jobs N` — worker threads for the sweep engine (default: the
//!   machine's available parallelism);
//! - `--json` — additionally emit the raw results as JSON to stdout;
//! - `--metrics-out PATH` — write the metric-registry snapshot of every
//!   scheme as JSON to `PATH`;
//! - `--trace-out PATH` — write the recorded trace events as JSONL to
//!   `PATH` (set `CACHE8T_TRACE=event` or `verbose` to record any);
//! - `--timeline-out PATH` — record a wall-clock execution timeline and
//!   write it as Chrome trace-event JSON (Perfetto-loadable) to `PATH`;
//! - `--series-out PATH` — sample windowed telemetry (one window every
//!   65,536 replayed ops) during every scheme run and write the
//!   time-series as JSONL to `PATH`.
//!
//! A binary reads the four output flags by running on the sweep engine
//! and calling
//! [`write_observability`](crate::experiment::write_observability); such
//! a binary passes [`ALL_FLAGS`].

use std::path::PathBuf;
use std::sync::Arc;

use cache8t_exec::{
    run_suites, BenchmarkResult, ExecOptions, GeometryPoint, SweepOptions, TraceStore,
};
use cache8t_obs::SamplerConfig;

/// Every flag the parser knows: the list a binary passes when it runs
/// on the sweep engine and honours all four output flags through
/// [`write_observability`](crate::experiment::write_observability).
pub const ALL_FLAGS: &str =
    "--ops --seed --jobs --json --metrics-out --trace-out --timeline-out --series-out";

/// Parsed common flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Measured operations per benchmark.
    pub ops: usize,
    /// Generator seed.
    pub seed: u64,
    /// Sweep-engine worker threads; `None` = available parallelism.
    pub jobs: Option<usize>,
    /// Emit raw JSON after the table.
    pub json: bool,
    /// Write the per-scheme metric snapshots as JSON to this path.
    pub metrics_out: Option<PathBuf>,
    /// Write the recorded trace events as JSONL to this path.
    pub trace_out: Option<PathBuf>,
    /// Write a Chrome trace-event timeline (Perfetto) to this path.
    pub timeline_out: Option<PathBuf>,
    /// Write windowed telemetry time-series as JSONL to this path.
    pub series_out: Option<PathBuf>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs::new()
    }
}

impl CommonArgs {
    /// The defaults every binary starts from.
    pub fn new() -> Self {
        CommonArgs {
            ops: 2_000_000,
            seed: 42,
            jobs: None,
            json: false,
            metrics_out: None,
            trace_out: None,
            timeline_out: None,
            series_out: None,
        }
    }

    /// The sweep-engine options these flags select: `--jobs` workers,
    /// a trace store without disk backing (point `CACHE8T_TRACE_STORE`
    /// at a directory to cache traces on disk), and a progress line on
    /// TTYs.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            exec: ExecOptions {
                workers: self.jobs.unwrap_or(0),
                ..ExecOptions::default()
            },
            progress: true,
            store: Arc::new(TraceStore::from_env()),
            series: self.series_out.is_some().then(SamplerConfig::default),
            ..SweepOptions::default()
        }
    }

    /// Runs the 25-benchmark suite at each named paper geometry on the
    /// sweep engine with [`sweep_options`](CommonArgs::sweep_options):
    /// one result vector per label, in order. Prints the failure summary
    /// and exits with status 1 if a sweep job failed.
    pub fn run_suites(&self, labels: &[&str]) -> Vec<Vec<BenchmarkResult>> {
        let points = labels
            .iter()
            .map(|label| GeometryPoint::named(label).expect("paper geometry"))
            .collect();
        run_suites(points, self.ops, self.seed, &self.sweep_options()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
    }

    /// Parses `std::env::args()`-style arguments (the first element is the
    /// program name, used in messages). `reads` lists, space-separated,
    /// the flags the binary reads; any other flag is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a flag outside `reads` or a
    /// malformed value.
    ///
    /// # Panics
    ///
    /// Panics if `reads` names a flag the parser does not know.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, reads: &str) -> Result<Self, String> {
        for flag in reads.split_whitespace() {
            assert!(
                ALL_FLAGS.split_whitespace().any(|k| k == flag),
                "unknown harness flag {flag} in the reads list"
            );
        }
        let mut out = CommonArgs::new();
        let mut iter = args.into_iter();
        let program = iter.next().unwrap_or_default();
        let program = std::path::Path::new(&program)
            .file_name()
            .map_or_else(|| "<binary>".into(), |n| n.to_string_lossy().into_owned());
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Err(format!("usage: {program} {reads}"));
            }
            if !reads.split_whitespace().any(|f| f == arg) {
                return Err(format!("{program} does not take {arg} (it takes: {reads})"));
            }
            let mut value = || iter.next().ok_or(format!("{arg} requires a value"));
            match arg.as_str() {
                "--ops" => {
                    let v = value()?;
                    out.ops = v
                        .replace('_', "")
                        .parse()
                        .map_err(|_| format!("invalid --ops value `{v}`"))?;
                    if out.ops == 0 {
                        return Err("--ops must be positive".to_string());
                    }
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("invalid --seed value `{v}`"))?;
                }
                "--jobs" => {
                    let v = value()?;
                    let jobs: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --jobs value `{v}`"))?;
                    if jobs == 0 {
                        return Err("--jobs must be positive".to_string());
                    }
                    out.jobs = Some(jobs);
                }
                "--json" => out.json = true,
                "--metrics-out" => out.metrics_out = Some(PathBuf::from(value()?)),
                "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
                "--timeline-out" => out.timeline_out = Some(PathBuf::from(value()?)),
                "--series-out" => out.series_out = Some(PathBuf::from(value()?)),
                _ => unreachable!("{arg} is a known flag"),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments against `reads` (see
    /// [`parse`](CommonArgs::parse)), printing the error and exiting
    /// with status 2 on failure. Turns timeline recording on when
    /// `--timeline-out` is given, so every phase from the first trace
    /// generation onward lands in the trace.
    pub fn from_env(reads: &str) -> Self {
        match Self::parse(std::env::args(), reads) {
            Ok(args) => {
                if args.timeline_out.is_some() {
                    cache8t_obs::timeline::enable();
                    cache8t_obs::timeline::set_track_name("main");
                }
                args
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        parse_for(ALL_FLAGS, args)
    }

    fn parse_for(reads: &str, args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(
            std::iter::once("target/release/fig10".to_string())
                .chain(args.iter().map(|s| s.to_string())),
            reads,
        )
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.ops, 2_000_000);
        assert_eq!(a.seed, 42);
        assert_eq!(a.jobs, None);
        assert!(!a.json);
        assert_eq!(a.metrics_out, None);
        assert_eq!(a.trace_out, None);
        assert_eq!(a.timeline_out, None);
        assert_eq!(a.series_out, None);
        assert!(a.sweep_options().series.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--ops",
            "10_000",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--json",
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.jsonl",
            "--timeline-out",
            "tl.json",
            "--series-out",
            "s.jsonl",
        ])
        .unwrap();
        assert_eq!(a.ops, 10_000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.jobs, Some(4));
        assert!(a.json);
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(a.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(a.timeline_out, Some(PathBuf::from("tl.json")));
        assert_eq!(a.series_out, Some(PathBuf::from("s.jsonl")));
        assert_eq!(
            a.sweep_options().series,
            Some(SamplerConfig::default()),
            "--series-out turns sampling on at the default cadence"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--ops"]).is_err());
        assert!(parse(&["--ops", "abc"]).is_err());
        assert!(parse(&["--ops", "0"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--timeline-out"]).is_err());
        assert!(parse(&["--series-out"]).is_err());
    }

    #[test]
    fn rejects_every_flag_the_binary_does_not_read() {
        // A table binary on the sweep engine that writes no output file
        // (fig10, fig11): the output flags would be ignored.
        let reads = "--ops --seed --jobs --json";
        assert!(parse_for(reads, &["--ops", "2000", "--jobs", "2", "--json"]).is_ok());
        for (args, rejected) in [
            (&["--series-out", "s.jsonl"][..], "--series-out"),
            (&["--metrics-out", "m.json"], "--metrics-out"),
            (&["--trace-out", "t.jsonl"], "--trace-out"),
            (&["--timeline-out", "tl.json"], "--timeline-out"),
            (
                &[
                    "--ops",
                    "2000",
                    "--series-out",
                    "s.jsonl",
                    "--metrics-out",
                    "m.json",
                ],
                "--series-out",
            ),
        ] {
            let err = parse_for(reads, args).expect_err("an unread flag is an error");
            assert_eq!(
                err,
                format!("fig10 does not take {rejected} (it takes: {reads})"),
                "{args:?}"
            );
        }
        // A serial binary reads no --jobs; table_area_overhead reads
        // only --json; ext_sweeps prints no JSON.
        let err = parse_for("--ops --seed --json", &["--jobs", "2"]).unwrap_err();
        assert!(err.contains("does not take --jobs"), "{err}");
        let err = parse_for("--json", &["--ops", "5"]).unwrap_err();
        assert!(err.contains("does not take --ops"), "{err}");
        let err = parse_for("--ops --seed --jobs", &["--json"]).unwrap_err();
        assert!(err.contains("does not take --json"), "{err}");
        // The usage line lists exactly the flags the binary reads.
        assert_eq!(
            parse_for("--json", &["--help"]).unwrap_err(),
            "usage: fig10 --json"
        );
    }

    #[test]
    #[should_panic(expected = "unknown harness flag --jsno")]
    fn a_misspelt_reads_list_is_a_bug() {
        let _ = parse_for("--ops --jsno", &[]);
    }
}
