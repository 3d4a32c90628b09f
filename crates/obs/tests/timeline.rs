//! Timeline integration test: records events from several threads,
//! drains, and validates the Chrome trace-event JSON shape.
//!
//! The timeline is process-global (per-thread buffers behind one
//! registry), so this file deliberately holds exactly ONE `#[test]`
//! function — a second test in the same binary would race the
//! enable/drain cycle.

use std::collections::HashMap;

use cache8t_obs::{timeline, TimelineSpan};
use serde_json::Value;

#[test]
fn chrome_trace_shape_across_threads() {
    timeline::enable();
    timeline::set_track_name("main");

    // A nested pair of spans on the main thread...
    {
        let _outer = TimelineSpan::enter("outer", "span");
        let _inner = TimelineSpan::enter_lazy(|| "inner".to_string(), "span");
        timeline::instant("marker", "sched");
    }
    // ...and one named track per spawned worker, span plus instant.
    std::thread::scope(|scope| {
        for i in 0..3 {
            scope.spawn(move || {
                timeline::set_track_name(format!("test-worker-{i}"));
                let _span = TimelineSpan::enter(format!("work-{i}"), "job");
                timeline::instant("tick", "sched");
            });
        }
    });

    timeline::disable();
    let snapshot = timeline::drain();
    assert!(snapshot.event_count() >= 4 + 3 * 3);

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

    // After disable, recording helpers are inert: a second drain sees
    // nothing new.
    drop(TimelineSpan::enter("late", "span"));
    timeline::instant("late", "span");
    let quiet = timeline::drain();
    assert_eq!(quiet.event_count(), 0, "disabled timeline still recorded");
}
