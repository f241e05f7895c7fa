//! Execution modes that must not change a table do not change a table.
//!
//! One differential test over the printed tables of `fig3` (the most
//! sleeping slots), `many-to-one` (the fewest: its charged ticks are mostly
//! elided under back-pressure), `robustness` (fault-armed: every component
//! draws from its own probe stream) and `fig4` (a checkpoint restore in the
//! middle of every cell: the mode must survive it) at scale 1, and over the
//! cycle counts of EXT-TLM (`tlm`: its bus has no fast-forward hook, so the
//! default body ticks every edge of its windows; its printed table adds host
//! time). It replaces the `ci.sh` gates that ran `repro` twice and
//! diffed the output — an [`ExecMode`] is a value now, so a test thread can
//! hold one:
//!
//! | row             | retired `ci.sh` gate                                   |
//! |-----------------|--------------------------------------------------------|
//! | `again`         | `gate_determinism` (fig3 twice, one seed)               |
//! | `dense`         | `gate_sparse` (fig3, many-to-one: sparse vs `--dense`)  |
//! | `fast q1`       | `gate_gear`, first half (`--fast-gear 1` = cycle)       |
//! | `fast q16`      | `gate_gear`, second half (quantum 16 = its dense twin)  |
//!
//! That a mode *reaches* every simulation an experiment builds — the other
//! thing those gates showed, by going through the CLI — is counted in
//! `crates/bench/tests/mode_reach.rs`. The report- and checkpoint-level
//! equivalences stay where they were (`scheduler_equivalence.rs`,
//! `proptest_fast_forward.rs`); this compares what a user reads.

use mpsoc_kernel::{ExecMode, Fidelity};
use mpsoc_platform::experiments::{self, Run};

const CYCLE: ExecMode = ExecMode {
    dense: false,
    fidelity: Fidelity::Cycle,
};
const FAST_16: ExecMode = ExecMode {
    fidelity: Fidelity::Fast { quantum: 16 },
    ..CYCLE
};

/// `(label, mode, reference)`: the tables printed under `mode` must equal
/// the tables printed under `reference`, byte for byte.
const ROWS: [(&str, ExecMode, ExecMode); 4] = [
    ("again", CYCLE, CYCLE),
    (
        "dense",
        ExecMode {
            dense: true,
            ..CYCLE
        },
        CYCLE,
    ),
    (
        "fast q1",
        ExecMode {
            fidelity: Fidelity::Fast { quantum: 1 },
            ..CYCLE
        },
        CYCLE,
    ),
    (
        "fast q16",
        FAST_16,
        ExecMode {
            dense: true,
            ..FAST_16
        },
    ),
];

/// The five tables as `repro --scale 1` prints them, under `exec` (EXT-TLM
/// without its host-time columns).
fn tables(exec: ExecMode) -> [(&'static str, String); 5] {
    let run = Run {
        exec,
        ..Run::new(1, experiments::DEFAULT_SEED)
    };
    [
        ("fig3", experiments::fig3(run).expect("runs").to_string()),
        (
            "many-to-one",
            experiments::many_to_one(run).expect("runs").to_string(),
        ),
        (
            "robustness",
            experiments::robustness(run).expect("runs").to_string(),
        ),
        ("fig4", experiments::fig4(run).expect("runs").to_string()),
        (
            "tlm",
            format!(
                "{:?}\n",
                experiments::fidelity_study(run)
                    .expect("runs")
                    .rows
                    .iter()
                    .map(|r| r.exec_cycles)
                    .collect::<Vec<_>>()
            ),
        ),
    ]
}

#[test]
fn modes_that_must_not_change_a_table_do_not() {
    let cycle = tables(CYCLE);
    for (label, mode, reference) in ROWS {
        let want = if reference == CYCLE {
            cycle.clone()
        } else {
            tables(reference)
        };
        for ((id, got), (_, want)) in tables(mode).into_iter().zip(want) {
            assert!(
                got == want,
                "{id} under `{label}` ({mode:?}) differs from its reference ({reference:?})\n\
                 --- reference ---\n{want}--- {label} ---\n{got}"
            );
        }
    }
}
