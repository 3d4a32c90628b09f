//! The refresh contract of the derived registry counters.
//!
//! Sixteen registry counters copy a ledger field (`ctrl.*`, `cache.*`,
//! seven `wg.*`, two `rmw.*`, two `coalesce.*`). They are set from the
//! ledgers, not counted, and a reader of `Controller::obs()` between
//! calls must still see current values: a per-op replay loop samples
//! the registry right after `access`, and `simulate --metrics-out`
//! snapshots it after `flush`. This property drives random op sequences
//! through all five schemes, flat and over an L2, and checks every
//! derived counter after every `access`, every `access_batch` range,
//! every `flush` and every `reset_counters`.

use proptest::prelude::*;

use cache8t_core::{CacheBackend, Controller, SchemeKind};
use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
use cache8t_trace::{DecodedBatch, MemOp};

/// Every derived counter name, across all schemes.
const DERIVED: [&str; 16] = [
    "ctrl.reads",
    "ctrl.writes",
    "cache.line_fills",
    "cache.evictions",
    "cache.dirty_evictions",
    "wg.groups",
    "wg.writebacks",
    "wg.premature_writebacks",
    "wg.silent_suppressed",
    "wg.buffer_fills",
    "wg.grouped_writes",
    "wg.bypassed_reads",
    "rmw.ops",
    "rmw.read_phases",
    "coalesce.silent_suppressed",
    "coalesce.forwarded_reads",
];

/// 4 sets of 2 ways of 32 B blocks: the 32 blocks the ops touch keep
/// every set conflicted.
fn geometry() -> CacheGeometry {
    CacheGeometry::new(256, 2, 32).expect("valid L1 geometry")
}

fn l2_geometry() -> CacheGeometry {
    CacheGeometry::new(1024, 4, 32).expect("valid L2 geometry")
}

/// One call on the controller under test.
#[derive(Debug, Clone)]
enum Step {
    Access(MemOp),
    /// Ops decoded into one batch and serviced as two ranges, cut at
    /// the index.
    Batch(Vec<MemOp>, usize),
    Flush,
    Reset,
}

/// Reads and writes over 128 words; values below 4 make silent writes
/// and silent groups common.
fn op() -> impl Strategy<Value = MemOp> {
    (0u64..128, any::<bool>(), 0u64..4).prop_map(|(word, write, value)| {
        let addr = Address::new(word * 8);
        if write {
            MemOp::write(addr, value)
        } else {
            MemOp::read(addr)
        }
    })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        op().prop_map(Step::Access),
        op().prop_map(Step::Access),
        (collection::vec(op(), 1..40), 0usize..41).prop_map(|(ops, cut)| {
            let cut = cut.min(ops.len());
            Step::Batch(ops, cut)
        }),
        Just(Step::Flush),
        Just(Step::Reset),
    ]
}

/// The ledger expression each derived counter of `kind` must equal.
fn expected(kind: SchemeKind, c: &dyn Controller) -> Vec<(&'static str, u64)> {
    let (t, s, l1) = (c.traffic(), c.stats(), c.cache());
    let mut want = vec![
        ("ctrl.reads", s.reads()),
        ("ctrl.writes", s.writes()),
        ("cache.line_fills", t.line_fills),
        ("cache.evictions", l1.evictions()),
        ("cache.dirty_evictions", l1.dirty_evictions()),
    ];
    match kind {
        SchemeKind::Conventional => {}
        SchemeKind::Rmw => want.extend([
            ("rmw.ops", t.rmw_ops),
            ("rmw.read_phases", t.rmw_read_phases),
        ]),
        SchemeKind::Wg | SchemeKind::WgRb => want.extend([
            ("wg.groups", t.writebacks + t.silent_writebacks_elided),
            ("wg.writebacks", t.writebacks),
            ("wg.premature_writebacks", t.premature_writebacks),
            ("wg.silent_suppressed", t.silent_writebacks_elided),
            ("wg.buffer_fills", t.buffer_fills),
            ("wg.grouped_writes", t.grouped_writes),
            ("wg.bypassed_reads", t.bypassed_reads),
        ]),
        SchemeKind::Coalesce(_) => want.extend([
            ("coalesce.silent_suppressed", t.silent_writebacks_elided),
            ("coalesce.forwarded_reads", t.bypassed_reads),
        ]),
    }
    want
}

/// Every derived counter equals its ledger expression, and a scheme's
/// registry carries no other scheme's counters.
fn check(kind: SchemeKind, c: &dyn Controller, after: &str) -> Result<(), TestCaseError> {
    let registry = c.obs().expect("every scheme is instrumented").registry();
    let want = expected(kind, c);
    for name in DERIVED {
        let value = want.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        prop_assert_eq!(
            registry.counter_by_name(name),
            value,
            "{} {} after {}",
            kind,
            name,
            after
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derived_counters_equal_the_ledgers_after_every_call(
        steps in collection::vec(step(), 1..60),
    ) {
        for with_l2 in [false, true] {
            for kind in SchemeKind::suite(2) {
                let backend = if with_l2 {
                    CacheBackend::with_l2(geometry(), l2_geometry(), ReplacementKind::Lru)
                } else {
                    CacheBackend::new(geometry(), ReplacementKind::Lru)
                };
                let mut c = kind.build_on(backend);
                check(kind, c.as_ref(), "construction")?;
                for step in &steps {
                    match step {
                        Step::Access(op) => {
                            c.access(op);
                            check(kind, c.as_ref(), "access")?;
                        }
                        Step::Batch(ops, cut) => {
                            let mut batch = DecodedBatch::new(geometry());
                            batch.decode(ops);
                            for range in [0..*cut, *cut..ops.len()] {
                                c.access_batch(&batch, range);
                                check(kind, c.as_ref(), "access_batch")?;
                            }
                        }
                        Step::Flush => {
                            c.flush();
                            check(kind, c.as_ref(), "flush")?;
                        }
                        Step::Reset => {
                            c.reset_counters();
                            check(kind, c.as_ref(), "reset_counters")?;
                        }
                    }
                }
            }
        }
    }
}
