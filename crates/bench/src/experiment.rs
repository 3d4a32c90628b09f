//! The per-benchmark experiment runner shared by all harness binaries.
//!
//! The runner itself now lives in [`cache8t_exec::experiment`] so the
//! parallel sweep engine and the serial figure binaries drive the exact
//! same measurement code; this module re-exports it and keeps the
//! harness-side output helpers (`--metrics-out` / `--trace-out`) that
//! need the CLI types.

use std::io::Write;
use std::path::Path;

pub use cache8t_exec::experiment::{
    average, generate_trace, measure_stream, replay, run_benchmark, run_benchmark_on_trace,
    run_suite, BenchmarkResult, Ops, RunConfig, SchemeKind, SchemeResult,
};

use crate::cli::CommonArgs;

/// Builds the `--metrics-out` document: one entry per benchmark holding
/// every scheme's metric-registry snapshot.
pub fn metrics_report(results: &[BenchmarkResult]) -> serde_json::Value {
    let benchmarks = results
        .iter()
        .map(|r| {
            let schemes = r
                .schemes()
                .iter()
                .map(|s| (s.scheme.to_string(), s.metrics.clone()))
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
pub fn write_trace_jsonl<W: Write>(mut w: W, results: &[BenchmarkResult]) -> std::io::Result<()> {
    for r in results {
        for s in r.schemes() {
            for event in &s.events {
                let line =
                    serde_json::to_string(event).expect("serializing a trace event cannot fail");
                writeln!(w, "{line}")?;
            }
        }
    }
    Ok(())
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
    use cache8t_sim::CacheGeometry;
    use cache8t_trace::profiles;

    fn small_config() -> RunConfig {
        RunConfig::new(CacheGeometry::paper_baseline(), 20_000, 7)
    }

    #[test]
    fn benchmark_run_produces_consistent_results() {
        let p = profiles::by_name("gcc").unwrap();
        let r = run_benchmark(&p, small_config());
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
        let p = profiles::by_name("mcf").unwrap();
        let a = run_benchmark(&p, small_config());
        let b = run_benchmark(&p, small_config());
        assert_eq!(a.rmw.array_accesses, b.rmw.array_accesses);
        assert_eq!(a.wgrb.array_accesses, b.wgrb.array_accesses);
    }

    #[test]
    fn scheme_results_carry_metric_snapshots() {
        let p = profiles::by_name("gcc").unwrap();
        let r = run_benchmark(&p, small_config());
        for s in r.schemes() {
            let serde_json::Value::Object(sections) = &s.metrics else {
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
        let p = profiles::by_name("gcc").unwrap();
        let r = vec![run_benchmark(&p, small_config())];
        let avg = average(&r, BenchmarkResult::wg_reduction);
        assert!((avg - r[0].wg_reduction()).abs() < 1e-12);
        assert_eq!(average(&[], BenchmarkResult::wg_reduction), 0.0);
    }
}
