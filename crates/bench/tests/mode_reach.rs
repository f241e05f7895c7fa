//! An execution mode reaches every simulation an experiment builds — by
//! count, not by table: a flag that silently missed one platform would
//! leave every table as it was.
//!
//! For every experiment of the registry at scale 1, the kernel activity
//! measured around one run must show the mode on *every* edge. A
//! measurement sees only the simulations its own run drove, so the two
//! tests may run side by side.

use mpsoc_bench::{measure_experiment, Run, EXPERIMENT_REGISTRY};
use mpsoc_kernel::{ExecMode, Fidelity};

fn run(exec: ExecMode) -> Run {
    Run {
        exec,
        ..Run::new(1, 0x0dab)
    }
}

/// Dense: no slot sleeps and no charged tick goes undispatched, anywhere,
/// in either gear.
#[test]
fn dense_reaches_every_simulation_of_every_experiment() {
    for desc in EXPERIMENT_REGISTRY {
        let id = desc.id;
        let dense = measure_experiment(
            id,
            run(ExecMode {
                dense: true,
                ..ExecMode::default()
            }),
        )
        .expect("runs");
        assert_eq!(
            (dense.skipped, dense.elided),
            (0, 0),
            "{id}: a simulation ran sparse under `dense`"
        );
    }
}

/// Gear: whoever does not choose its own runs fast-forward windows.
#[test]
fn the_fast_gear_reaches_every_experiment_that_does_not_choose_its_own() {
    for desc in EXPERIMENT_REGISTRY.iter().filter(|desc| !desc.own_gear) {
        let id = desc.id;
        let fast = measure_experiment(
            id,
            run(ExecMode {
                fidelity: Fidelity::Fast { quantum: 16 },
                ..ExecMode::default()
            }),
        )
        .expect("runs");
        assert!(
            fast.ff_windows > 0,
            "{id}: no simulation ran in the fast gear"
        );
    }
}
