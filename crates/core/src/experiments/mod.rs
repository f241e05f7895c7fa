//! One entry point per table and figure of the paper's evaluation.
//!
//! Every experiment returns a structured, `serde`-serialisable result that
//! also implements [`Display`](std::fmt::Display) as the table/series the
//! paper reports. The experiment index (id ↔ paper reference ↔ modules ↔
//! bench target) lives in `DESIGN.md`; measured-versus-paper values are
//! recorded in `EXPERIMENTS.md`.
//!
//! Every experiment takes one [`Run`]: the workload multiplier, the seed,
//! the fan-out of its independent points and the [`ExecMode`] every
//! simulation it builds executes in. The default scale used by the `repro`
//! binary is [`DEFAULT_SCALE`]; results are qualitatively stable from scale
//! 2 upwards.

use crate::platforms::{PlatformSpec, SingleLayerSpec};
use mpsoc_kernel::ExecMode;

mod ablations;
mod dual_channel;
mod fidelity;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod gear;
mod many_to_many;
mod many_to_one;
mod parallel;
mod robustness;

pub use ablations::{
    arbitration_study, bridge_ablation, buffering_ablation, lmi_ablation, ArbitrationStudy,
    ArbitrationStudyRow, BridgeAblation, BufferingAblation, LmiAblation,
};
pub use dual_channel::{dual_channel_study, DualChannelStudy};
pub use fidelity::{fidelity_study, FidelityRow, FidelityStudy};
pub use fig3::{fig3, Fig3, Fig3Bar};
pub use fig4::{fig4, Fig4, Fig4Point};
pub use fig5::{fig5, Fig5, Fig5Bar};
pub use fig6::{fig6, Fig6, Fig6Phase};
pub use gear::{fast_forward_study, FastForwardRow, FastForwardStudy, FAST_FORWARD_QUANTA};
pub use many_to_many::{many_to_many, ManyToMany, ManyToManyRow};
pub use many_to_one::{many_to_one, ManyToOne, ManyToOneRow};
pub use parallel::{host_cores, parallel_map, parallel_map_with};
pub use robustness::{robustness, Robustness, RobustnessRow};

/// Default workload multiplier for experiment runs.
pub const DEFAULT_SCALE: u64 = 4;

/// Default seed for experiment runs.
pub const DEFAULT_SEED: u64 = 0x0dab;

/// How an experiment is run: what every entry point of this module takes.
///
/// `exec` reaches every simulation the experiment builds, through the
/// `exec` field of the spec it is built from. Tables are identical for any
/// `jobs` and either schedule; only `exec.fidelity` above quantum 1 makes
/// them approximate. The one entry point that is *about* the gear —
/// [`fast_forward_study`] — sets it itself and takes only the schedule
/// from `exec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Workload multiplier.
    pub scale: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Worker threads for the independent points of sweep-shaped
    /// experiments (the rest run on the calling thread).
    pub jobs: usize,
    /// Execution mode of every simulation built.
    pub exec: ExecMode,
}

impl Run {
    /// A serial run in the default mode.
    pub fn new(scale: u64, seed: u64) -> Self {
        Run {
            scale,
            seed,
            jobs: 1,
            exec: ExecMode::default(),
        }
    }

    /// The full-platform spec this run starts every variant from: scale,
    /// seed and mode set, everything else the reference platform.
    pub fn platform_spec(&self) -> PlatformSpec {
        PlatformSpec {
            scale: self.scale,
            seed: self.seed,
            exec: self.exec,
            ..PlatformSpec::default()
        }
    }

    /// [`Run::platform_spec`] for the single-layer platform.
    pub fn single_layer_spec(&self) -> SingleLayerSpec {
        SingleLayerSpec {
            scale: self.scale,
            seed: self.seed,
            exec: self.exec,
            ..SingleLayerSpec::default()
        }
    }
}

impl Default for Run {
    fn default() -> Self {
        Run::new(DEFAULT_SCALE, DEFAULT_SEED)
    }
}
