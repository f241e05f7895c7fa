//! An execution mode reaches every simulation an experiment builds — by
//! count, not by table: a flag that silently missed one platform would
//! leave every table as it was.
//!
//! For every experiment of the registry at scale 1, the kernel's activity
//! counters around one run must show the mode on *every* edge. The counters
//! are process-wide, so this binary holds exactly one `#[test]`: nothing
//! else may simulate beside it.

use mpsoc_bench::{measure_experiment, Run, EXPERIMENT_REGISTRY};
use mpsoc_kernel::{ExecMode, Fidelity};

fn run(exec: ExecMode) -> Run {
    Run {
        exec,
        ..Run::new(1, 0x0dab)
    }
}

#[test]
fn every_mode_reaches_every_simulation_of_every_experiment() {
    for desc in EXPERIMENT_REGISTRY {
        let id = desc.id;

        // Dense: no slot sleeps and no charged tick goes undispatched,
        // anywhere, in either gear.
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

        // Gear: whoever does not choose its own runs fast-forward windows.
        if !desc.own_gear {
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
}
