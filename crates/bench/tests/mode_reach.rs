//! An execution mode reaches every simulation an experiment builds — by
//! count, not by table: a flag that silently missed one platform would
//! leave every table as it was.
//!
//! For every experiment of the registry at scale 1, the kernel's activity
//! counters around one run must show the mode on *every* edge. The counters
//! are process-wide, so this binary holds exactly one `#[test]`: nothing
//! else may simulate beside it.
//!
//! The tick-jobs runs also hold the suite's retick share under its
//! ceiling. The share is a deterministic count, not a timing, so the
//! ceiling arms on a one-core host as well as on many.

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
    let (mut par_computed, mut par_reticked) = (0, 0);
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

        // Tick jobs: a parallel-enabled simulation records exactly one of
        // "took the parallel path", "too little eligible work", "audit on"
        // on every cycle-gear edge. Fast-gear batches record none, so the
        // experiments that shift into the fast gear themselves can only
        // show that the parallel path was taken at all.
        let parallel = measure_experiment(
            id,
            run(ExecMode {
                tick_jobs: 2,
                ..ExecMode::default()
            }),
        )
        .expect("runs");
        par_computed += parallel.par_computed;
        par_reticked += parallel.par_reticked;
        let accounted =
            parallel.par_edges + parallel.par_fallback_small + parallel.par_fallback_audit;
        if desc.own_gear {
            assert!(accounted > 0, "{id}: no simulation ran with tick jobs");
        } else {
            assert_eq!(
                accounted, parallel.edges,
                "{id}: a simulation ran serially under `tick_jobs: 2`"
            );
        }

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

    // Reticks are pure waste: a parallel-computed tick thrown away and
    // re-run serially (a stats-registration or RNG-divergence abort).
    // Pre-registered metrics and speculative RNG substreams have removed
    // them from the paper experiments; what is left is same-edge contention
    // on saturated wires (many-to-many 5.2 %, buffering 5.7 %, noc 4.3 % of
    // their own ticks), 1.1 % of the suite's at any job count, so the
    // ceiling sits at 2 %. An abort of the kind it guards against reticks
    // every tick of its component.
    let share = par_reticked as f64 / par_computed as f64;
    assert!(
        share < 0.02,
        "{par_reticked} of {par_computed} parallel-computed ticks ({:.2} %) were re-run \
         serially: a component mints stats ids or draws unannounced RNG inside a parallel tick",
        share * 100.0
    );
}
