//! The harness binaries' view of the experiment layer.
//!
//! The replay driver and the result types live in
//! [`cache8t_exec::experiment`]; every benchmark result comes from the
//! sweep engine ([`cache8t_exec::run_suites`]). This module re-exports
//! what the binaries read and keeps the harness-side output helpers
//! (`--metrics-out` / `--trace-out` / `--series-out` / `--timeline-out`)
//! that need the CLI types.

use std::io::Write;
use std::path::Path;

pub use cache8t_exec::experiment::{average, BenchmarkResult};

use cache8t_core::{ArrayTraffic, Controller};
use cache8t_exec::{replay, Ops};
use cache8t_trace::Trace;

use crate::cli::CommonArgs;

/// Replays all of `trace` through `controller` on the one replay driver,
/// with no warm-up and no sampler, and returns its traffic ledger after
/// the final flush: the figure the extension binaries compare schemes
/// by.
pub fn replay_traffic(controller: &mut dyn Controller, trace: &Trace) -> ArrayTraffic {
    match replay(controller, Ops::Trace(trace), 0, None) {
        Ok(result) => result.traffic,
        Err(e) => unreachable!("a replay without a sampler does no I/O: {e}"),
    }
}

/// Builds the `--metrics-out` document: one entry per benchmark holding
/// every scheme's metric-registry snapshot.
pub fn metrics_report(results: &[BenchmarkResult]) -> serde_json::Value {
    let benchmarks = results
        .iter()
        .map(|r| {
            let schemes = r
                .schemes()
                .iter()
                .map(|s| (s.scheme.to_string(), s.metrics.to_value()))
                .collect();
            serde_json::Value::Object(vec![
                ("name".to_string(), serde_json::Value::Str(r.name.clone())),
                ("schemes".to_string(), serde_json::Value::Object(schemes)),
            ])
        })
        .collect();
    serde_json::Value::Object(vec![(
        "benchmarks".to_string(),
        serde_json::Value::Array(benchmarks),
    )])
}

/// Writes every recorded trace event as JSONL (one `TraceEvent` object
/// per line, benchmarks and schemes in run order), the format
/// `cache8t_obs::trace::parse_jsonl_line` reads back.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace_jsonl<W: Write>(w: W, results: &[BenchmarkResult]) -> std::io::Result<()> {
    let events = results
        .iter()
        .flat_map(BenchmarkResult::schemes)
        .flat_map(|s| s.events.iter().copied());
    cache8t_obs::trace::write_jsonl(events, w)
}

/// Writes every telemetry window recorded by a sampled run as JSONL
/// (one [`cache8t_obs::SeriesSample`] object per line, benchmarks and
/// schemes in run order) — the format `cache8t watch` and
/// `cache8t report-series` read, and `cache8t_obs::sampler::
/// parse_series_line` parses. Rows carry only stream-derived
/// quantities, so the output is byte-identical for any `--jobs`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_series_jsonl<W: Write>(mut w: W, results: &[BenchmarkResult]) -> std::io::Result<()> {
    for r in results {
        for s in r.schemes() {
            for sample in &s.series {
                writeln!(w, "{}", sample.to_json_line())?;
            }
        }
    }
    Ok(())
}

/// Honors the shared `--metrics-out` / `--trace-out` /
/// `--timeline-out` / `--series-out` flags: writes the metric snapshot,
/// the event JSONL, the drained execution timeline, and/or the
/// telemetry time-series when the paths are set.
///
/// # Errors
///
/// Returns the underlying I/O error if any file cannot be written.
pub fn write_observability(args: &CommonArgs, results: &[BenchmarkResult]) -> std::io::Result<()> {
    if let Some(path) = &args.metrics_out {
        write_metrics_file(path, results)?;
        eprintln!("metrics snapshot written to {}", path.display());
    }
    if let Some(path) = &args.series_out {
        write_buffered(path, |w| write_series_jsonl(w, results))?;
        eprintln!("telemetry series written to {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        write_buffered(path, |w| write_trace_jsonl(w, results))?;
        eprintln!("trace events written to {}", path.display());
    }
    if let Some(path) = &args.timeline_out {
        cache8t_obs::timeline::disable();
        let snapshot = cache8t_obs::timeline::drain();
        write_buffered(path, |w| snapshot.write_chrome_json(w))?;
        eprintln!(
            "timeline ({} events on {} tracks) written to {}",
            snapshot.event_count(),
            snapshot.tracks.len(),
            path.display()
        );
    }
    Ok(())
}

/// Creates `path` and writes it through a buffer with `write`, flushing
/// before returning: a buffer dropped unflushed would lose the error of
/// its final write.
fn write_buffered(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    write(&mut writer)?;
    writer.flush()
}

fn write_metrics_file(path: &Path, results: &[BenchmarkResult]) -> std::io::Result<()> {
    let doc = metrics_report(results);
    let mut text =
        serde_json::to_string_pretty(&doc).expect("serializing a metric snapshot cannot fail");
    text.push('\n');
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_exec::{run_sweep, GeometryPoint, SweepOptions, SweepPlan};
    use cache8t_trace::profiles;

    /// One benchmark at the baseline geometry, run by the sweep engine.
    fn run_one(name: &str) -> BenchmarkResult {
        let plan = SweepPlan {
            profiles: vec![profiles::by_name(name).unwrap()],
            geometries: vec![GeometryPoint::named("baseline").unwrap()],
            ops: 20_000,
            seed: 7,
        };
        let mut results = run_sweep(&plan, &SweepOptions::default())
            .into_complete()
            .unwrap();
        results.remove(0).remove(0)
    }

    #[test]
    fn benchmark_run_produces_consistent_results() {
        let r = run_one("gcc");
        assert_eq!(r.name, "gcc");
        // Functional behaviour identical across schemes.
        assert_eq!(r.conventional.stats, r.rmw.stats);
        assert_eq!(r.rmw.stats, r.wg.stats);
        assert_eq!(r.wg.stats, r.wgrb.stats);
        // Traffic strictly ordered: 6T < WG+RB < WG < RMW.
        assert!(r.wgrb.array_accesses < r.wg.array_accesses);
        assert!(r.wg.array_accesses < r.rmw.array_accesses);
        assert!(r.conventional.array_accesses < r.rmw.array_accesses);
        assert!(r.rmw_increase() > 0.0);
        assert!(r.wg_reduction() > 0.0);
        assert!(r.wgrb_reduction() > r.wg_reduction());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_one("mcf");
        let b = run_one("mcf");
        assert_eq!(a.rmw.array_accesses, b.rmw.array_accesses);
        assert_eq!(a.wgrb.array_accesses, b.wgrb.array_accesses);
    }

    #[test]
    fn scheme_results_carry_metric_snapshots() {
        let r = run_one("gcc");
        for s in r.schemes() {
            let serde_json::Value::Object(sections) = s.metrics.to_value() else {
                panic!("{} metrics not an object", s.scheme);
            };
            assert!(
                sections.iter().any(|(k, _)| k == "counters"),
                "{} snapshot missing counters",
                s.scheme
            );
        }
        // The scheme-specific names the CI smoke check greps for.
        let text = serde_json::to_string(&metrics_report(&[r])).unwrap();
        for name in [
            "rmw.sequences",
            "rmw.burst",
            "wg.groups",
            "wg.group_len",
            "wg.silent_suppressed",
        ] {
            assert!(text.contains(name), "report missing {name}");
        }
    }

    #[test]
    fn average_helper() {
        let r = vec![run_one("gcc")];
        let avg = average(&r, BenchmarkResult::wg_reduction);
        assert!((avg - r[0].wg_reduction()).abs() < 1e-12);
        let none: [BenchmarkResult; 0] = [];
        assert_eq!(average(&none, BenchmarkResult::wg_reduction), 0.0);
    }
}
