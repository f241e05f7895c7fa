//! EXT-DUAL — removing the memory bottleneck (guideline 4).
//!
//! Guideline 4 of the paper observes that once competent interconnects
//! converge on the centralized memory bottleneck, the leverage "calls for
//! optimizations of the I/O architecture to remove the system bottleneck".
//! This extension experiment does exactly that: it splits the unified
//! memory region across **two** LMI controllers and measures how much of
//! the single-channel execution time comes back, with the IP footprints
//! spread evenly across the two channels.

use super::Run;
use crate::platforms::{
    build_platform_with_ips, CustomIp, MemorySystem, PlatformSpec, Topology, MEM_BASE, MEM_LEN,
};
use mpsoc_kernel::SimResult;
use mpsoc_memory::LmiConfig;
use mpsoc_protocol::{DataWidth, InitiatorId, ProtocolKind};
use mpsoc_traffic::workloads::{self, MemoryWindow};
use std::fmt;

/// The EXT-DUAL comparison.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct DualChannelStudy {
    /// Execution time with one LMI channel.
    pub single_cycles: u64,
    /// Execution time with two interleaved LMI channels.
    pub dual_cycles: u64,
    /// `dual / single` — below 1 means the bottleneck was removed.
    pub speed_ratio: f64,
    /// Aggregate FIFO-full fraction, single channel.
    pub single_full: f64,
    /// Worst per-channel FIFO-full fraction, dual channel.
    pub dual_full: f64,
}

impl fmt::Display for DualChannelStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXT-DUAL removing the memory bottleneck (guideline 4)")?;
        writeln!(
            f,
            "single LMI channel {:>10} cycles  (fifo full {:>5.1}%)",
            self.single_cycles,
            self.single_full * 100.0
        )?;
        writeln!(
            f,
            "dual LMI channels  {:>10} cycles  (worst fifo full {:>5.1}%)",
            self.dual_cycles,
            self.dual_full * 100.0
        )?;
        writeln!(f, "ratio {:.3}", self.speed_ratio)
    }
}

/// The IP roster used by the study: the standard consumer mix, with the
/// footprints alternating between the low and high memory halves so a dual
/// channel configuration can serve them in parallel.
fn roster(scale: u64) -> Vec<CustomIp> {
    let width = DataWidth::BITS64;
    let window = MemoryWindow {
        base: MEM_BASE,
        len: MEM_LEN,
    };
    // Even slice indices land in the low half, odd ones in the high half
    // (16 slices over the region; the halves split at slice 8).
    let slice = |i: u64| window.slice(i, 16);
    let id = InitiatorId::new(0); // overwritten at build time
    vec![
        CustomIp {
            name: "video_dec".into(),
            cluster: 0,
            config: workloads::video_decoder(id, width, slice(0), scale),
        },
        CustomIp {
            name: "decrypt".into(),
            cluster: 0,
            config: workloads::decryptor(id, width, slice(9), scale),
        },
        CustomIp {
            name: "dma0".into(),
            cluster: 1,
            config: workloads::dma_engine(id, width, slice(2), scale),
        },
        CustomIp {
            name: "dma1".into(),
            cluster: 1,
            config: workloads::dma_engine(id, width, slice(11), scale),
        },
        CustomIp {
            name: "resizer".into(),
            cluster: 1,
            config: workloads::image_resizer(id, width, slice(4), scale),
        },
        CustomIp {
            name: "blitter".into(),
            cluster: 2,
            config: workloads::graphics_blitter(id, width, slice(13), scale),
        },
        CustomIp {
            name: "audio".into(),
            cluster: 2,
            config: workloads::audio_interface(id, width, slice(6), scale),
        },
    ]
}

/// Runs EXT-DUAL.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn dual_channel_study(run: Run) -> SimResult<DualChannelStudy> {
    let measure = |memory: MemorySystem| -> SimResult<(u64, f64)> {
        let spec = PlatformSpec {
            protocol: ProtocolKind::StbusT3,
            topology: Topology::Distributed,
            memory,
            with_dsp: false,
            ..run.platform_spec()
        };
        let mut p = build_platform_with_ips(&spec, &roster(run.scale))?;
        let report = p.run()?;
        let worst_full = report.lmi.iter().map(|l| l.full).fold(0.0f64, f64::max);
        Ok((report.exec_cycles, worst_full))
    };
    let (single_cycles, single_full) = measure(MemorySystem::Lmi(LmiConfig::default()))?;
    let (dual_cycles, dual_full) = measure(MemorySystem::DualLmi(LmiConfig::default()))?;
    Ok(DualChannelStudy {
        single_cycles,
        dual_cycles,
        speed_ratio: dual_cycles as f64 / single_cycles.max(1) as f64,
        single_full,
        dual_full,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_channel_removes_the_bottleneck() {
        let study = dual_channel_study(Run::new(2, 0x0dab)).expect("runs");
        assert!(
            study.speed_ratio < 0.92,
            "a second channel must pay off, ratio {}",
            study.speed_ratio
        );
        assert!(
            study.dual_full <= study.single_full,
            "pressure per channel must drop: {} vs {}",
            study.dual_full,
            study.single_full
        );
    }
}
