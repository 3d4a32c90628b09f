//! Banked (sub-arrayed) SRAM: the physical substrate of Park et al.'s
//! local RMW (paper §2).
//!
//! Large SRAMs are split into sub-arrays with hierarchical bit lines; Park
//! et al. exploit this to perform the RMW write-back *inside* one
//! sub-array, leaving the others able to service requests. [`BankedArray`]
//! models exactly that: rows are distributed over `banks` sub-arrays (by
//! row index modulo, matching a cache's set-index banking), each with its
//! own 1R+1W [`PortSet`]; an RMW occupies only its own bank's ports.

use std::fmt;

use crate::{ArrayConfig, ArrayError, OpLatency, PortBusyError, PortSet, SramArray};

/// An 8T SRAM split into independently ported sub-arrays.
///
/// # Example
///
/// ```
/// use cache8t_sram::{ArrayConfig, BankedArray, OpLatency};
///
/// # fn main() -> Result<(), cache8t_sram::ArrayError> {
/// let config = ArrayConfig::new(8, 4, 16)?;
/// let mut array = BankedArray::new(config, 4, OpLatency::single_cycle())?;
///
/// // An RMW in bank 0 (row 0) and a read in bank 1 (row 1) overlap...
/// let rmw_done = array.issue_rmw(0, 0, 0, 7).unwrap();
/// let read_done = array.issue_read(1, 0).unwrap();
/// assert_eq!(rmw_done, 2);
/// assert_eq!(read_done.1, 1);
/// // ...while a read in bank 0 must wait for the local RMW.
/// assert!(array.issue_read(4, 0).is_err()); // row 4 is bank 0 again
/// # Ok(())
/// # }
/// ```
pub struct BankedArray {
    banks: Vec<SramArray>,
    ports: Vec<PortSet>,
    rows: usize,
}

impl BankedArray {
    /// Splits `config.rows()` over `banks` sub-arrays (row `r` lives in
    /// bank `r % banks`), each with its own ports.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::EmptyDimension`] if `banks` is zero or does
    /// not divide the row count.
    pub fn new(config: ArrayConfig, banks: usize, latency: OpLatency) -> Result<Self, ArrayError> {
        if banks == 0 || !config.rows().is_multiple_of(banks) {
            return Err(ArrayError::EmptyDimension { what: "rows" });
        }
        let per_bank = ArrayConfig::new(
            config.rows() / banks,
            config.words_per_row(),
            config.word_bits(),
        )?;
        Ok(BankedArray {
            banks: (0..banks).map(|_| SramArray::new(per_bank)).collect(),
            ports: (0..banks).map(|_| PortSet::new(latency)).collect(),
            rows: config.rows(),
        })
    }

    /// Number of sub-arrays.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Total rows across all banks.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Maps a global row to `(bank, local_row)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RowOutOfRange`] if `row >= rows()`.
    pub fn locate(&self, row: usize) -> Result<(usize, usize), ArrayError> {
        if row >= self.rows {
            return Err(ArrayError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok((row % self.banks.len(), row / self.banks.len()))
    }

    /// The sub-array holding `row` (for data inspection).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RowOutOfRange`] for a bad row.
    pub fn bank_of(&self, row: usize) -> Result<&SramArray, ArrayError> {
        let (bank, _) = self.locate(row)?;
        Ok(&self.banks[bank])
    }

    /// Issues a row read at cycle `now`, using only the owning bank's read
    /// port. Returns the sensed words and the completion cycle.
    ///
    /// # Errors
    ///
    /// Returns a range error for a bad row; a [`PortBusyError`] (inside
    /// `Ok(Err(..))` is avoided — busy ports surface as `Err` via
    /// [`ArrayError`]-independent [`PortBusyError`]) when the bank's read
    /// port is occupied.
    #[allow(clippy::type_complexity)]
    pub fn issue_read(
        &mut self,
        row: usize,
        now: u64,
    ) -> Result<(Vec<Option<u64>>, u64), BankedIssueError> {
        let (bank, local) = self.locate(row)?;
        let done = self.ports[bank].issue_read(now)?;
        let words = self.banks[bank].read_row(local)?;
        Ok((words, done))
    }

    /// Issues a *local* RMW of one word at cycle `now`: read phase then
    /// write phase, both confined to the owning bank's ports (Park et
    /// al.'s scheme). Returns the completion cycle.
    ///
    /// # Errors
    ///
    /// Returns a range error for a bad row/word or a port-busy error when
    /// the bank cannot accept the RMW.
    pub fn issue_rmw(
        &mut self,
        row: usize,
        word: usize,
        now: u64,
        value: u64,
    ) -> Result<u64, BankedIssueError> {
        let (bank, local) = self.locate(row)?;
        let done = self.ports[bank].issue_rmw(now)?;
        self.banks[bank].rmw_write_word(local, word, value)?;
        Ok(done)
    }

    /// Total activations summed over all banks.
    pub fn total_activations(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.counters().total_activations())
            .sum()
    }

    /// Exports the aggregate counters into an obs registry: the per-bank
    /// `sram.*` counters accumulate (each bank's bridge adds into the same
    /// names), the port busy-cycle gauges are summed over banks, and a
    /// `sram.banks` gauge records the sub-array count.
    pub fn export_obs_metrics(&self, registry: &mut cache8t_obs::MetricRegistry) {
        for bank in &self.banks {
            bank.export_obs_metrics(registry);
        }
        let read: u64 = self.ports.iter().map(PortSet::read_busy_cycles).sum();
        let write: u64 = self.ports.iter().map(PortSet::write_busy_cycles).sum();
        let id = registry.gauge("sram.read_port_busy_cycles");
        registry.set(id, read as i64);
        let id = registry.gauge("sram.write_port_busy_cycles");
        registry.set(id, write as i64);
        let id = registry.gauge("sram.banks");
        registry.set(id, self.banks.len() as i64);
    }
}

impl fmt::Debug for BankedArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BankedArray")
            .field("banks", &self.banks.len())
            .field("rows", &self.rows)
            .field("total_activations", &self.total_activations())
            .finish_non_exhaustive()
    }
}

/// Why a banked issue failed: either the address was bad or the bank's
/// port was busy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankedIssueError {
    /// Row or word out of range.
    Array(ArrayError),
    /// The owning bank's port is occupied.
    PortBusy(PortBusyError),
}

impl fmt::Display for BankedIssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankedIssueError::Array(e) => write!(f, "{e}"),
            BankedIssueError::PortBusy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BankedIssueError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BankedIssueError::Array(e) => Some(e),
            BankedIssueError::PortBusy(e) => Some(e),
        }
    }
}

impl From<ArrayError> for BankedIssueError {
    fn from(e: ArrayError) -> Self {
        BankedIssueError::Array(e)
    }
}

impl From<PortBusyError> for BankedIssueError {
    fn from(e: PortBusyError) -> Self {
        BankedIssueError::PortBusy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> BankedArray {
        BankedArray::new(
            ArrayConfig::new(8, 4, 16).unwrap(),
            4,
            OpLatency::single_cycle(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_divisibility() {
        let config = ArrayConfig::new(8, 4, 16).unwrap();
        assert!(BankedArray::new(config, 0, OpLatency::single_cycle()).is_err());
        assert!(BankedArray::new(config, 3, OpLatency::single_cycle()).is_err());
        let a = BankedArray::new(config, 2, OpLatency::single_cycle()).unwrap();
        assert_eq!(a.banks(), 2);
        assert_eq!(a.rows(), 8);
    }

    #[test]
    fn rows_interleave_across_banks() {
        let a = array();
        assert_eq!(a.locate(0).unwrap(), (0, 0));
        assert_eq!(a.locate(1).unwrap(), (1, 0));
        assert_eq!(a.locate(5).unwrap(), (1, 1));
        assert_eq!(a.locate(7).unwrap(), (3, 1));
        assert!(a.locate(8).is_err());
    }

    #[test]
    fn rmw_in_one_bank_does_not_block_others() {
        let mut a = array();
        a.issue_rmw(0, 0, 0, 5).unwrap(); // bank 0 busy [0,2)
                                          // Banks 1..3 are free at cycle 0.
        for row in 1..4 {
            a.issue_read(row, 0).unwrap();
        }
        // Bank 0 is not.
        assert!(matches!(
            a.issue_read(4, 0),
            Err(BankedIssueError::PortBusy(_))
        ));
        // After the local RMW completes, bank 0 reads again.
        let (words, done) = a.issue_read(4, 2).unwrap();
        assert_eq!(done, 3);
        assert_eq!(words.len(), 4);
    }

    #[test]
    fn data_lands_in_the_right_bank_row() {
        let mut a = array();
        a.issue_rmw(6, 2, 0, 0xAB).unwrap(); // bank 2, local row 1
        let bank = a.bank_of(6).unwrap();
        assert_eq!(bank.peek_row(1).unwrap()[2], Some(0xAB));
        // The sibling row in the same bank is untouched.
        assert_eq!(bank.peek_row(0).unwrap()[2], Some(0));
        assert_eq!(a.total_activations(), 2);
    }

    #[test]
    fn issue_read_returns_row_contents() {
        let mut a = array();
        a.issue_rmw(3, 1, 0, 0x7F).unwrap();
        let (words, _) = a.issue_read(3, 5).unwrap();
        assert_eq!(words[1], Some(0x7F));
    }

    #[test]
    fn obs_bridge_aggregates_banks() {
        let mut a = array();
        a.issue_rmw(6, 2, 0, 0xAB).unwrap(); // bank 2, local row 1
        a.issue_read(1, 0).unwrap(); // bank 1, local row 0

        let mut reg = cache8t_obs::MetricRegistry::new();
        a.export_obs_metrics(&mut reg);
        assert_eq!(reg.counter_by_name("sram.rmw_ops"), Some(1));
        assert_eq!(reg.counter_by_name("sram.row_reads"), Some(2)); // RMW read phase + demand read
        let names = reg.names();
        assert!(names.contains(&"sram.banks"));
        assert!(names.contains(&"sram.read_port_busy_cycles"));
    }

    #[test]
    fn errors_carry_sources() {
        let mut a = array();
        let err = a.issue_read(99, 0).unwrap_err();
        assert!(matches!(err, BankedIssueError::Array(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(!err.to_string().is_empty());
        a.issue_rmw(0, 0, 0, 1).unwrap();
        let busy = a.issue_rmw(0, 0, 0, 2).unwrap_err();
        assert!(matches!(busy, BankedIssueError::PortBusy(_)));
    }
}
