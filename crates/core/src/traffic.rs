//! SRAM-array traffic accounting.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// The SRAM-array operation ledger of one controller.
///
/// Every counter is a number of *row activations* (word-line assertions) of
/// the data array, labelled by why it happened. The headline metric —
/// the paper's "cache access frequency" — is
/// [`total`](ArrayTraffic::total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayTraffic {
    /// Row reads serving CPU loads from the array.
    pub demand_reads: u64,
    /// Row writes depositing CPU stores into the array (the write phase of
    /// an RMW, or a plain write on a 6T array).
    pub demand_writes: u64,
    /// Row reads performed as the read phase of an RMW (pure overhead; the
    /// quantity the paper's motivation section blames).
    pub rmw_read_phases: u64,
    /// Complete RMW sequences performed.
    pub rmw_ops: u64,
    /// Row reads that filled the Set-Buffer (WG's "read row").
    pub buffer_fills: u64,
    /// Row writes that wrote the Set-Buffer back to the array.
    pub writebacks: u64,
    /// Subset of `writebacks` forced early by a read hitting the
    /// Tag-Buffer (paper §4.1's premature write-backs).
    pub premature_writebacks: u64,
    /// Reads served from the Set-Buffer instead of the array (WG+RB only).
    pub bypassed_reads: u64,
    /// Writes absorbed by the Set-Buffer without touching the array.
    pub grouped_writes: u64,
    /// Write-backs suppressed because the Dirty bit was clear (every write
    /// in the group was silent).
    pub silent_writebacks_elided: u64,
    /// Line fills caused by cache misses (not counted in
    /// [`total`](ArrayTraffic::total)).
    pub line_fills: u64,
    /// Dirty lines written back to memory on eviction (not counted in
    /// [`total`](ArrayTraffic::total)).
    pub eviction_writebacks: u64,
}

impl ArrayTraffic {
    /// Zeroed ledger.
    pub fn new() -> Self {
        ArrayTraffic::default()
    }

    /// Total array activations triggered by CPU demand requests: the
    /// paper's counting (its Pin tool models an isolated L1). Miss-induced
    /// line fills and dirty-eviction write-backs are identical across all
    /// controllers, so they stay out of the comparison.
    pub fn total(&self) -> u64 {
        self.demand_reads
            + self.demand_writes
            + self.rmw_read_phases
            + self.buffer_fills
            + self.writebacks
    }

    /// Total array *read-port* activations (row reads) of demand
    /// traffic — the quantity behind the read-port-availability argument
    /// of paper §4.1.
    pub fn read_port_activations(&self) -> u64 {
        self.demand_reads + self.rmw_read_phases + self.buffer_fills
    }

    /// Total array *write-port* activations (row writes) of demand
    /// traffic.
    pub fn write_port_activations(&self) -> u64 {
        self.demand_writes + self.writebacks
    }

    /// Relative reduction of this ledger's traffic versus `baseline`
    /// (e.g. WG vs RMW — the y-axis of Figures 9–11). Positive means fewer
    /// accesses than the baseline.
    pub fn reduction_vs(&self, baseline: &ArrayTraffic) -> f64 {
        let base = baseline.total();
        if base == 0 {
            return 0.0;
        }
        1.0 - self.total() as f64 / base as f64
    }
}

impl Add for ArrayTraffic {
    type Output = ArrayTraffic;

    fn add(mut self, rhs: ArrayTraffic) -> ArrayTraffic {
        self += rhs;
        self
    }
}

impl AddAssign for ArrayTraffic {
    fn add_assign(&mut self, rhs: ArrayTraffic) {
        self.demand_reads += rhs.demand_reads;
        self.demand_writes += rhs.demand_writes;
        self.rmw_read_phases += rhs.rmw_read_phases;
        self.rmw_ops += rhs.rmw_ops;
        self.buffer_fills += rhs.buffer_fills;
        self.writebacks += rhs.writebacks;
        self.premature_writebacks += rhs.premature_writebacks;
        self.bypassed_reads += rhs.bypassed_reads;
        self.grouped_writes += rhs.grouped_writes;
        self.silent_writebacks_elided += rhs.silent_writebacks_elided;
        self.line_fills += rhs.line_fills;
        self.eviction_writebacks += rhs.eviction_writebacks;
    }
}

impl fmt::Display for ArrayTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "array accesses {} (reads {} + rmw-reads {} + fills {} + writes {} + writebacks {}), \
             grouped {} / bypassed {} / silent-elided {}",
            self.total(),
            self.demand_reads,
            self.rmw_read_phases,
            self.buffer_fills,
            self.demand_writes,
            self.writebacks,
            self.grouped_writes,
            self.bypassed_reads,
            self.silent_writebacks_elided,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArrayTraffic {
        ArrayTraffic {
            demand_reads: 100,
            demand_writes: 40,
            rmw_read_phases: 40,
            rmw_ops: 40,
            buffer_fills: 5,
            writebacks: 6,
            premature_writebacks: 2,
            bypassed_reads: 10,
            grouped_writes: 20,
            silent_writebacks_elided: 3,
            line_fills: 7,
            eviction_writebacks: 4,
        }
    }

    #[test]
    fn total_counts_demand_traffic_only() {
        let t = sample();
        assert_eq!(t.total(), 100 + 40 + 40 + 5 + 6, "no fills or evictions");
    }

    #[test]
    fn port_activation_split() {
        let t = sample();
        assert_eq!(t.read_port_activations(), 145);
        assert_eq!(t.write_port_activations(), 46);
        assert_eq!(
            t.read_port_activations() + t.write_port_activations(),
            t.total()
        );
    }

    #[test]
    fn reduction_vs_baseline() {
        let mut better = ArrayTraffic::new();
        better.demand_reads = 50;
        let mut baseline = ArrayTraffic::new();
        baseline.demand_reads = 100;
        assert!((better.reduction_vs(&baseline) - 0.5).abs() < 1e-12);
        assert_eq!(better.reduction_vs(&ArrayTraffic::new()), 0.0);
    }

    #[test]
    fn addition_is_fieldwise() {
        let t = sample() + sample();
        assert_eq!(t.demand_reads, 200);
        assert_eq!(t.silent_writebacks_elided, 6);
        assert_eq!(t.eviction_writebacks, 8);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(sample().to_string().contains("array accesses"));
    }
}
