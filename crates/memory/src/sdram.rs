//! SDRAM device model: banks, rows and command timing.
//!
//! The model works in **memory-controller clock cycles** (plain `u64`); the
//! [`LmiController`](crate::LmiController) converts to and from simulation
//! time. It enforces the JEDEC-style inter-command constraints the paper
//! lists as model parameters (tRAS, tCAS, tRCD, tRP, tRC, tWR, tREFI, tRFC)
//! and supports both SDR and DDR data rates.

use mpsoc_protocol::Opcode;
use std::fmt;

/// Single- or double-data-rate device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SdramKind {
    /// One data beat per clock edge pair (1 beat/cycle).
    Sdr,
    /// Two data beats per cycle.
    Ddr,
}

impl SdramKind {
    /// Data beats transferred per controller cycle.
    pub fn beats_per_cycle(self) -> u64 {
        match self {
            SdramKind::Sdr => 1,
            SdramKind::Ddr => 2,
        }
    }
}

impl fmt::Display for SdramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdramKind::Sdr => write!(f, "SDR"),
            SdramKind::Ddr => write!(f, "DDR"),
        }
    }
}

/// SDRAM timing parameters, in controller clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramTiming {
    /// ACTIVATE to READ/WRITE delay (row-to-column).
    pub t_rcd: u64,
    /// PRECHARGE to ACTIVATE delay (row precharge).
    pub t_rp: u64,
    /// READ to first data delay (CAS latency).
    pub t_cas: u64,
    /// Minimum ACTIVATE to PRECHARGE time (row active time).
    pub t_ras: u64,
    /// Minimum ACTIVATE to ACTIVATE time, same bank (row cycle).
    pub t_rc: u64,
    /// Write recovery: last write data to PRECHARGE.
    pub t_wr: u64,
    /// Average refresh interval (one AUTO-REFRESH due every `t_refi`).
    pub t_refi: u64,
    /// Refresh cycle time (device busy per AUTO-REFRESH).
    pub t_rfc: u64,
    /// Data rate.
    pub kind: SdramKind,
}

impl SdramTiming {
    /// A DDR SDRAM profile typical of the platform's era (e.g. DDR-266 at a
    /// 133 MHz memory clock: CL=2.5≈3, tRCD=3, tRP=3, tRAS=6).
    pub fn ddr_typical() -> Self {
        SdramTiming {
            t_rcd: 3,
            t_rp: 3,
            t_cas: 3,
            t_ras: 6,
            t_rc: 9,
            t_wr: 3,
            t_refi: 1040, // 7.8 us at 133 MHz
            t_rfc: 10,
            kind: SdramKind::Ddr,
        }
    }

    /// A slower SDR profile.
    pub fn sdr_typical() -> Self {
        SdramTiming {
            t_rcd: 3,
            t_rp: 3,
            t_cas: 3,
            t_ras: 6,
            t_rc: 9,
            t_wr: 2,
            t_refi: 1170,
            t_rfc: 9,
            kind: SdramKind::Sdr,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a constraint that must hold
    /// between parameters is violated (e.g. `t_rc < t_ras + t_rp`).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "t_rc ({}) must be >= t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_refi == 0 || self.t_rfc == 0 {
            return Err("refresh timing must be non-zero".to_owned());
        }
        if self.t_rcd == 0 || self.t_rp == 0 || self.t_cas == 0 {
            return Err("core timing parameters must be non-zero".to_owned());
        }
        Ok(())
    }

    /// Cycles needed to stream `beats` data beats.
    pub fn data_cycles(&self, beats: u64) -> u64 {
        beats.div_ceil(self.kind.beats_per_cycle())
    }
}

/// Geometry: how byte addresses decode into (bank, row, column).
///
/// The decode order is column (low bits) → bank → row, the interleaving that
/// lets sequential streams hit open rows while spreading across banks at row
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramGeometry {
    /// log2 of the number of banks.
    pub bank_bits: u32,
    /// log2 of the number of column *bytes* per row.
    pub col_bits: u32,
    /// log2 of the number of rows per bank.
    pub row_bits: u32,
}

impl Default for SdramGeometry {
    fn default() -> Self {
        // 4 banks x 8192 rows x 2 KiB rows = 64 MiB.
        SdramGeometry {
            bank_bits: 2,
            col_bits: 11,
            row_bits: 13,
        }
    }
}

impl SdramGeometry {
    /// Number of banks.
    pub fn banks(&self) -> usize {
        1 << self.bank_bits
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> u64 {
        1 << self.col_bits
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        1u64 << (self.bank_bits + self.col_bits + self.row_bits)
    }

    /// Decodes a byte address into `(bank, row)` (the column is implicit in
    /// the timing model). Addresses beyond capacity wrap.
    pub fn decode(&self, addr: u64) -> (usize, u64) {
        let bank = ((addr >> self.col_bits) & ((1 << self.bank_bits) - 1)) as usize;
        let row = (addr >> (self.col_bits + self.bank_bits)) & ((1 << self.row_bits) - 1);
        (bank, row)
    }
}

/// The outcome of planning one SDRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPlan {
    /// Whether the access hit an already-open row.
    pub row_hit: bool,
    /// Cycle the command sequence starts.
    pub start: u64,
    /// Cycle the first data beat is available (reads) or accepted (writes).
    pub first_data: u64,
    /// Cycle the access fully completes (bank ready for the next command,
    /// modulo tRAS/tRC residuals tracked internally).
    pub done: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Cycle of the last ACTIVATE (for tRAS / tRC); `None` before the first.
    activated_at: Option<u64>,
    /// Bank unusable before this cycle.
    ready_at: u64,
}

mpsoc_kernel::snapshot_state! {
    impl Persist for BankState { open_row, activated_at, ready_at }
}

/// A multi-bank SDRAM device with open-row tracking and timing enforcement.
///
/// # Examples
///
/// ```
/// use mpsoc_memory::{SdramDevice, SdramTiming, SdramGeometry};
/// use mpsoc_protocol::Opcode;
///
/// let mut dev = SdramDevice::new(SdramTiming::ddr_typical(), SdramGeometry::default());
/// let miss = dev.plan_access(Opcode::Read, 0x0000, 8, 0);
/// assert!(!miss.row_hit);
/// // A second access to the same row is a hit and costs only CAS + data.
/// let hit = dev.plan_access(Opcode::Read, 0x0040, 8, miss.done);
/// assert!(hit.row_hit);
/// assert!(hit.done - hit.start < miss.done - miss.start);
/// ```
#[derive(Debug, Clone)]
pub struct SdramDevice {
    timing: SdramTiming,
    geometry: SdramGeometry,
    banks: Vec<BankState>,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
}

// The dynamic state (bank/row tracking and counters); timing and geometry
// are configuration and stay with the builder.
mpsoc_kernel::snapshot_state! {
    impl Snapshot for SdramDevice { banks, row_hits, row_misses, refreshes } then after_restore
}

impl SdramDevice {
    /// Creates a device in the all-banks-precharged state.
    ///
    /// # Panics
    ///
    /// Panics if `timing` fails validation; construct timing with the
    /// provided presets or check [`SdramTiming::validate`] first.
    pub fn new(timing: SdramTiming, geometry: SdramGeometry) -> Self {
        if let Err(reason) = timing.validate() {
            panic!("invalid SDRAM timing: {reason}");
        }
        SdramDevice {
            timing,
            geometry,
            banks: vec![BankState::default(); geometry.banks()],
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
        }
    }

    /// The timing profile.
    pub fn timing(&self) -> &SdramTiming {
        &self.timing
    }

    /// The geometry.
    pub fn geometry(&self) -> &SdramGeometry {
        &self.geometry
    }

    /// Row-buffer hits observed so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses (including cold activates) so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Auto-refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Whether an access at `addr` would hit the open row of its bank.
    pub fn would_hit(&self, addr: u64) -> bool {
        let (bank, row) = self.geometry.decode(addr);
        self.banks[bank].open_row == Some(row)
    }

    /// Plans (and commits) an access of `beats` data beats at `addr`,
    /// starting no earlier than `now`. Returns the timing plan.
    pub fn plan_access(&mut self, opcode: Opcode, addr: u64, beats: u32, now: u64) -> AccessPlan {
        let (bank_idx, row) = self.geometry.decode(addr);
        let t = self.timing;
        let bank = &mut self.banks[bank_idx];
        let mut cursor = now.max(bank.ready_at);
        let row_hit = bank.open_row == Some(row);

        if !row_hit {
            if bank.open_row.is_some() {
                // PRECHARGE: not before tRAS since the ACTIVATE.
                let ras_gate = bank.activated_at.map_or(0, |a| a + t.t_ras);
                let precharge_at = cursor.max(ras_gate);
                cursor = precharge_at + t.t_rp;
            }
            // ACTIVATE: not before tRC since the previous ACTIVATE.
            let rc_gate = bank.activated_at.map_or(0, |a| a + t.t_rc);
            let activate_at = cursor.max(rc_gate);
            bank.activated_at = Some(activate_at);
            bank.open_row = Some(row);
            cursor = activate_at + t.t_rcd;
            self.row_misses += 1;
        } else {
            self.row_hits += 1;
        }

        let start = now.max(bank.ready_at);
        let (first_data, done) = match opcode {
            Opcode::Read => {
                let first = cursor + t.t_cas;
                (first, first + t.data_cycles(beats as u64))
            }
            Opcode::Write => {
                let first = cursor + 1;
                // Write recovery keeps the bank busy past the last beat.
                (first, first + t.data_cycles(beats as u64) + t.t_wr)
            }
        };
        bank.ready_at = done;
        AccessPlan {
            row_hit,
            start,
            first_data,
            done,
        }
    }

    /// Restore's check hook: one bank state per bank of the geometry.
    fn after_restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        let banks = self.geometry.banks();
        if self.banks.len() != banks {
            r.refuse(format!(
                "{} bank states for {banks} banks",
                self.banks.len()
            ));
        }
    }

    /// Performs an AUTO-REFRESH starting no earlier than `now`: all banks
    /// are precharged and the device is busy for `t_rfc`. Returns the cycle
    /// the device becomes ready again.
    pub fn refresh(&mut self, now: u64) -> u64 {
        let t = self.timing;
        // Refresh may not begin until every bank can legally precharge.
        let start = self
            .banks
            .iter()
            .map(|b| {
                if b.open_row.is_some() {
                    let ras_gate = b.activated_at.map_or(0, |a| a + t.t_ras);
                    b.ready_at.max(ras_gate) + t.t_rp
                } else {
                    b.ready_at
                }
            })
            .fold(now, u64::max);
        let done = start + t.t_rfc;
        for bank in &mut self.banks {
            bank.open_row = None;
            bank.ready_at = done;
        }
        self.refreshes += 1;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> SdramDevice {
        SdramDevice::new(SdramTiming::ddr_typical(), SdramGeometry::default())
    }

    #[test]
    fn geometry_decodes_banks_and_rows() {
        let g = SdramGeometry::default();
        assert_eq!(g.banks(), 4);
        assert_eq!(g.row_bytes(), 2048);
        assert_eq!(g.capacity(), 64 << 20);
        let (b0, r0) = g.decode(0);
        assert_eq!((b0, r0), (0, 0));
        // Next row-sized chunk lands in the next bank.
        let (b1, r1) = g.decode(2048);
        assert_eq!((b1, r1), (1, 0));
        // After all banks, the row increments.
        let (b4, r4) = g.decode(4 * 2048);
        assert_eq!((b4, r4), (0, 1));
    }

    #[test]
    fn cold_miss_pays_rcd_plus_cas() {
        let mut dev = device();
        let t = *dev.timing();
        let plan = dev.plan_access(Opcode::Read, 0, 8, 0);
        assert!(!plan.row_hit);
        assert_eq!(plan.first_data, t.t_rcd + t.t_cas);
        assert_eq!(plan.done, plan.first_data + t.data_cycles(8));
        assert_eq!(dev.row_misses(), 1);
    }

    #[test]
    fn row_hit_pays_only_cas() {
        let mut dev = device();
        let t = *dev.timing();
        let miss = dev.plan_access(Opcode::Read, 0, 8, 0);
        let hit = dev.plan_access(Opcode::Read, 64, 8, miss.done);
        assert!(hit.row_hit);
        assert_eq!(hit.first_data, miss.done + t.t_cas);
        assert_eq!(dev.row_hits(), 1);
    }

    #[test]
    fn row_conflict_pays_precharge_activate() {
        let mut dev = device();
        let t = *dev.timing();
        let first = dev.plan_access(Opcode::Read, 0, 4, 0);
        // Same bank (bank 0), different row: addr = 4 banks * 2048 bytes.
        let conflict_addr = 4 * 2048;
        let second = dev.plan_access(Opcode::Read, conflict_addr, 4, first.done);
        assert!(!second.row_hit);
        // Precharge cannot start before tRAS after the activate at cycle 0.
        let precharge_at = first.done.max(t.t_ras);
        assert!(second.first_data >= precharge_at + t.t_rp + t.t_rcd + t.t_cas);
    }

    #[test]
    fn t_ras_delays_early_precharge() {
        let mut dev = device();
        let t = *dev.timing();
        // Activate row 0 then immediately conflict: the precharge must wait
        // for tRAS even though the data phase finished earlier.
        let first = dev.plan_access(Opcode::Read, 0, 1, 0);
        assert!(first.done < t.t_ras + t.t_rp); // premise of the test
        let second = dev.plan_access(Opcode::Read, 4 * 2048, 1, first.done);
        assert!(second.first_data >= t.t_ras + t.t_rp + t.t_rcd + t.t_cas);
    }

    #[test]
    fn t_rc_separates_activates() {
        let mut timing = SdramTiming::ddr_typical();
        timing.t_rc = 20; // exaggerate
        let mut dev = SdramDevice::new(timing, SdramGeometry::default());
        let a = dev.plan_access(Opcode::Read, 0, 1, 0);
        let b = dev.plan_access(Opcode::Read, 4 * 2048, 1, a.done);
        // Second ACTIVATE at >= 20 even though precharge would allow earlier.
        assert!(b.first_data >= 20 + timing.t_rcd + timing.t_cas);
    }

    #[test]
    fn ddr_streams_two_beats_per_cycle() {
        let t = SdramTiming::ddr_typical();
        assert_eq!(t.data_cycles(8), 4);
        assert_eq!(t.data_cycles(7), 4);
        let s = SdramTiming::sdr_typical();
        assert_eq!(s.data_cycles(8), 8);
    }

    #[test]
    fn write_recovery_extends_bank_busy() {
        let mut dev = device();
        let t = *dev.timing();
        let w = dev.plan_access(Opcode::Write, 0, 4, 0);
        assert_eq!(w.done, w.first_data + t.data_cycles(4) + t.t_wr);
    }

    #[test]
    fn refresh_closes_all_rows() {
        let mut dev = device();
        dev.plan_access(Opcode::Read, 0, 4, 0);
        assert!(dev.would_hit(64));
        let ready = dev.refresh(100);
        assert!(ready >= 100 + dev.timing().t_rfc);
        assert!(!dev.would_hit(64));
        assert_eq!(dev.refreshes(), 1);
        // Next access is a miss and cannot start before the refresh ends.
        let plan = dev.plan_access(Opcode::Read, 64, 4, 100);
        assert!(!plan.row_hit);
        assert!(plan.first_data >= ready);
    }

    #[test]
    fn banks_operate_independently() {
        let mut dev = device();
        let a = dev.plan_access(Opcode::Read, 0, 8, 0); // bank 0
        let b = dev.plan_access(Opcode::Read, 2048, 8, 0); // bank 1
                                                           // Bank 1 is not blocked by bank 0's access.
        assert_eq!(a.first_data, b.first_data);
    }

    #[test]
    #[should_panic(expected = "invalid SDRAM timing")]
    fn inconsistent_timing_rejected() {
        let mut t = SdramTiming::ddr_typical();
        t.t_rc = 1;
        let _ = SdramDevice::new(t, SdramGeometry::default());
    }

    #[test]
    fn validate_reports_zero_parameters() {
        let mut t = SdramTiming::sdr_typical();
        t.t_cas = 0;
        assert!(t.validate().is_err());
        let mut t = SdramTiming::sdr_typical();
        t.t_refi = 0;
        assert!(t.validate().is_err());
    }
}
