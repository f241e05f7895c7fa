//! The committed output digests of the default seed
//! (`benchmark/expected.json`).

use crate::json::{self, Json};
use crate::run::{Outcome, RunArgs};

/// The seed `expected.json` was recorded at (also the default `--seed`).
pub const DEFAULT_SEED: u64 = 1;

/// Whether a workload's simulated content follows `--seed` or is the same
/// under every seed (see each workload's module for which and why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    FollowsSeed,
    Fixed,
}

/// Notes `digest`, and checks it against the committed one wherever the
/// committed one applies — under every seed for fixed content, under the
/// default seed otherwise: the simulated results of a given input may not
/// drift unnoticed.
pub fn check_digest(
    args: &RunArgs,
    workload: &str,
    content: Content,
    digest: u64,
    out: &mut Outcome,
) {
    let got = format!("{digest:#018x}");
    out.note(format!("output digest {got}"));
    if content == Content::FollowsSeed && args.seed != DEFAULT_SEED {
        return;
    }
    let mode = if args.quick { "quick" } else { "full" };
    let path = args.bench_dir.join("expected.json");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| json::parse(&text))
        .and_then(|doc| {
            doc.get(mode)
                .and_then(|m| m.get(workload))
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{}: no {mode}.{workload} digest", path.display()))
        });
    out.check(committed.and_then(|want| {
        (want == got).then_some(()).ok_or_else(|| {
            format!("{workload}: output digest {got} differs from the committed {want} ({mode}, seed {DEFAULT_SEED})")
        })
    }));
}
