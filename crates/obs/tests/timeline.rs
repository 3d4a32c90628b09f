//! Span integration test: records spans and instants from several
//! threads, drains, validates the Chrome trace-event JSON shape, and
//! checks that each thread's profile agrees with its track.
//!
//! The timeline is process-global (per-thread buffers behind one
//! registry), so this file deliberately holds exactly ONE `#[test]`
//! function — a second test in the same binary would race the
//! enable/drain cycle.

use std::collections::HashMap;

use cache8t_obs::timeline::{self, Span, SpanStat, TimelinePhase, TimelineSnapshot};
use serde_json::Value;

/// Number of `B` slices labelled `label` on the track named `track`.
fn begins(snapshot: &TimelineSnapshot, track: &str, label: &str) -> u64 {
    snapshot
        .tracks
        .iter()
        .filter(|t| t.name.as_deref() == Some(track))
        .flat_map(|t| &t.events)
        .filter(|e| e.phase == TimelinePhase::Begin && e.name == label)
        .count() as u64
}

#[test]
fn chrome_trace_shape_across_threads() {
    timeline::enable();
    timeline::set_track_name("main");

    // A nested pair of spans on the main thread...
    {
        let _outer = Span::enter("outer");
        let _inner = Span::labelled("inner", "span", || "inner".to_string());
        timeline::instant("marker", "sched");
    }
    // ...and one named track per spawned worker: worker i opens its
    // labelled `work` span i + 1 times, each around a nested `step`,
    // and returns its profile before the thread goes away.
    let worker_reports: Vec<Vec<SpanStat>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    timeline::set_track_name(format!("test-worker-{i}"));
                    for _ in 0..=i {
                        let _span = Span::labelled("work", "job", || format!("work-{i}"));
                        let _step = Span::enter("step");
                        timeline::instant("tick", "sched");
                    }
                    timeline::take_report()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let main_report = timeline::take_report();

    timeline::disable();
    let snapshot = timeline::drain();
    assert!(snapshot.event_count() >= 5 + 5 * 6);

    // Every span's calls equal the `B` slices its thread's track holds
    // for it: `enter` spans are labelled with their name, `work` spans
    // with `work-{i}`.
    assert_eq!(main_report.len(), 2, "{main_report:?}");
    for stat in &main_report {
        assert_eq!(stat.calls, 1, "{stat:?}");
        assert_eq!(begins(&snapshot, "main", stat.name), stat.calls, "{stat:?}");
    }
    for (i, report) in worker_reports.iter().enumerate() {
        let track = format!("test-worker-{i}");
        assert_eq!(report.len(), 2, "{track}: {report:?}");
        for stat in report {
            let label = match stat.name {
                "work" => format!("work-{i}"),
                name => name.to_string(),
            };
            assert_eq!(stat.calls, i as u64 + 1, "{track}: {stat:?}");
            assert_eq!(
                begins(&snapshot, &track, &label),
                stat.calls,
                "{track}: {stat:?}"
            );
        }
        let work = report.iter().find(|s| s.name == "work").expect("work");
        let step = report.iter().find(|s| s.name == "step").expect("step");
        assert!(work.total >= step.total, "{track}: child outlasts parent");
        assert!(
            work.self_time <= work.total - step.total,
            "{track}: step not subtracted"
        );
    }

    // The snapshot must survive a JSON round trip through the vendored
    // serde_json (exactly what `--timeline-out` writes to disk).
    let mut bytes = Vec::new();
    snapshot.write_chrome_json(&mut bytes).expect("vec write");
    let doc: Value = serde_json::from_str(std::str::from_utf8(&bytes).expect("utf8"))
        .expect("emitted timeline parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    // Track names arrive as `M` metadata records, one per track.
    let mut names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .expect("thread_name metadata carries a name")
        })
        .collect();
    names.sort_unstable();
    for expected in ["main", "test-worker-0", "test-worker-1", "test-worker-2"] {
        assert!(
            names.contains(&expected),
            "missing track {expected}: {names:?}"
        );
    }

    // Group the real events per tid and validate each track.
    let mut tracks: HashMap<u64, Vec<&Value>> = HashMap::new();
    for event in events {
        let ph = event.get("ph").and_then(Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        assert!(matches!(ph, "B" | "E" | "i"), "unexpected phase {ph}");
        assert_eq!(event.get("pid").and_then(Value::as_u64), Some(1));
        assert!(event.get("cat").and_then(Value::as_str).is_some());
        assert!(event.get("ts").and_then(Value::as_u64).is_some());
        if ph == "i" {
            // Instants must be thread-scoped to render on their track.
            assert_eq!(event.get("s").and_then(Value::as_str), Some("t"));
        }
        let tid = event.get("tid").and_then(Value::as_u64).expect("tid");
        tracks.entry(tid).or_default().push(event);
    }
    assert!(tracks.len() >= 4, "main + three workers: {}", tracks.len());

    for (tid, track) in &tracks {
        // Timestamps are monotone per track (recording order).
        let ts: Vec<u64> = track
            .iter()
            .map(|e| e.get("ts").and_then(Value::as_u64).expect("ts"))
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "tid {tid} ts not monotone"
        );

        // Every `E` closes the most recent open `B` of the same name
        // (spans nest properly), every begin's ts <= its end's ts, and
        // no `B` is left open.
        let mut open: Vec<(&str, u64)> = Vec::new();
        for event in track {
            let name = event.get("name").and_then(Value::as_str).expect("name");
            let ts = event.get("ts").and_then(Value::as_u64).expect("ts");
            match event.get("ph").and_then(Value::as_str).expect("ph") {
                "B" => open.push((name, ts)),
                "E" => {
                    let (begin_name, begin_ts) = open
                        .pop()
                        .unwrap_or_else(|| panic!("tid {tid}: E without B"));
                    assert_eq!(begin_name, name, "tid {tid}: mismatched span nesting");
                    assert!(
                        begin_ts <= ts,
                        "tid {tid}: span {name} ends before it begins"
                    );
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "tid {tid}: unclosed spans {open:?}");
    }

    // After disable, a span still lands in the profile but the
    // timeline helpers are inert: a second drain sees nothing new.
    drop(Span::enter("late"));
    drop(Span::labelled("late-labelled", "job", || {
        panic!("a disabled timeline must not build the label")
    }));
    timeline::instant("late", "span");
    let late = timeline::take_report();
    let calls: Vec<(&str, u64)> = late.iter().map(|s| (s.name, s.calls)).collect();
    assert_eq!(calls, [("late", 1), ("late-labelled", 1)]);
    let quiet = timeline::drain();
    assert_eq!(quiet.event_count(), 0, "disabled timeline still recorded");
}
