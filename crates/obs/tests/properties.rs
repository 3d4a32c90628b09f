//! Property tests for the observability layer: histogram accounting
//! invariants and lossless JSONL event serialization.

use proptest::prelude::*;

use cache8t_obs::trace::parse_jsonl_line;
use cache8t_obs::{
    Component, EventKind, Log2Histogram, MetricRegistry, TraceEvent, TraceLevel, Tracer,
};

/// Strategy spanning the full u64 range, not just small values, so the
/// high buckets get exercised too.
fn any_magnitude_u64() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(raw, shift)| raw >> shift)
}

fn component_strategy() -> impl Strategy<Value = Component> {
    prop_oneof![
        Just(Component::Cache),
        Just(Component::Rmw),
        Just(Component::Wg),
        Just(Component::Coalesce),
        Just(Component::Conform),
    ]
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Access),
        Just(EventKind::BufferFill),
        Just(EventKind::GroupFlush),
        Just(EventKind::SilentElide),
        Just(EventKind::Bypass),
        Just(EventKind::RmwSequence),
        Just(EventKind::LineFill),
        Just(EventKind::Eviction),
        Just(EventKind::Divergence),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucket_counts_sum_to_observation_count(
        values in prop::collection::vec(any_magnitude_u64(), 0..256)
    ) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let bucket_total: u64 = (0..=64).map(|i| h.bucket(i)).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            prop_assert_eq!(min, *values.iter().min().unwrap());
            prop_assert_eq!(max, *values.iter().max().unwrap());
        } else {
            prop_assert!(values.is_empty());
        }
    }

    #[test]
    fn every_observation_lands_in_its_power_of_two_bucket(v in any_magnitude_u64()) {
        let idx = Log2Histogram::bucket_index(v);
        prop_assert!(idx <= 64);
        if v == 0 {
            prop_assert_eq!(idx, 0);
        } else {
            // Bucket k holds [2^(k-1), 2^k).
            prop_assert!(v >= 1u64 << (idx - 1));
            if idx < 64 {
                prop_assert!(v < 1u64 << idx);
            }
        }
    }

    #[test]
    fn merged_histograms_equal_single_stream(
        left in prop::collection::vec(any_magnitude_u64(), 0..64),
        right in prop::collection::vec(any_magnitude_u64(), 0..64),
    ) {
        let mut a = Log2Histogram::new();
        for &v in &left {
            a.observe(v);
        }
        let mut b = Log2Histogram::new();
        for &v in &right {
            b.observe(v);
        }
        a.merge(&b);

        let mut combined = Log2Histogram::new();
        for &v in left.iter().chain(right.iter()) {
            combined.observe(v);
        }
        prop_assert_eq!(a, combined);
    }

    #[test]
    fn registry_merge_equals_single_registry(
        xs in prop::collection::vec(any_magnitude_u64(), 0..64),
        split in 0usize..64,
    ) {
        prop_assume!(split <= xs.len());
        let mut whole = MetricRegistry::new();
        let c = whole.counter("n");
        let h = whole.histogram("h");
        for &v in &xs {
            whole.add(c, v & 0xF);
            whole.observe(h, v);
        }

        let mut first = MetricRegistry::new();
        let c1 = first.counter("n");
        let h1 = first.histogram("h");
        for &v in &xs[..split] {
            first.add(c1, v & 0xF);
            first.observe(h1, v);
        }
        let mut second = MetricRegistry::new();
        // Register in the opposite order to prove merge matches by
        // name, not by handle index.
        let h2 = second.histogram("h");
        let c2 = second.counter("n");
        for &v in &xs[split..] {
            second.add(c2, v & 0xF);
            second.observe(h2, v);
        }
        first.merge(&second);

        prop_assert_eq!(first.counter_by_name("n"), whole.counter_by_name("n"));
        prop_assert_eq!(first.histogram_by_name("h"), whole.histogram_by_name("h"));
    }

    #[test]
    fn jsonl_roundtrip_is_lossless(
        events in prop::collection::vec(
            (any::<u64>(), component_strategy(), kind_strategy(), any::<u64>(), any_magnitude_u64())
                .prop_map(|(tick, component, kind, addr, detail)| {
                    TraceEvent { tick, component, kind, addr, detail }
                }),
            0..128,
        )
    ) {
        let mut tracer = Tracer::new(TraceLevel::Event, events.len().max(1));
        for e in &events {
            tracer.emit(*e);
        }
        let mut buffer = Vec::new();
        tracer.write_jsonl(&mut buffer).expect("vec write");
        let text = String::from_utf8(buffer).expect("jsonl is utf8");
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|line| parse_jsonl_line(line).expect("line parses"))
            .collect();
        prop_assert_eq!(parsed, events);
    }
}
