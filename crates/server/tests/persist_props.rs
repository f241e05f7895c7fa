//! Properties of the disk spill layer: a spill that survives a "restart"
//! (store in one `DiskCache`, load in a fresh one) reconstructs the warm
//! state byte-identically for randomly drawn requests, and a damaged spill
//! is rejected and evicted without ever poisoning the in-memory cache.

use mpsoc_platform::service::{self, SweepRequest};
use mpsoc_platform::Topology;
use mpsoc_server::{DiskCache, WarmCache};
use proptest::prelude::*;
use std::path::PathBuf;

/// A fresh per-test spill directory (removed by the test that made it).
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpsn-persist-{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// spill → restart → load is byte-identical: the loaded warm state has
    /// the exact blob bytes, profile and fingerprint of the original, and
    /// serves the exact cycles a fork of the original serves.
    #[test]
    fn spill_survives_a_restart_byte_identically(
        topology_bit in 0u64..2,
        ws_exp in 0u64..6,
        seed in 0u64..3,
    ) {
        let req = SweepRequest {
            topology: if topology_bit == 0 {
                Topology::Collapsed
            } else {
                Topology::Distributed
            },
            wait_states: 1 << ws_exp,
            scale: 1,
            seed: 0x0dab + seed,
            ..SweepRequest::default()
        };
        let key = req.warm_key();
        let warm = service::warm_state(&req).expect("warm state");

        let dir = spill_dir(&format!("rt-{topology_bit}-{ws_exp}-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // First process: warm up and spill.
            let disk = DiskCache::open(&dir).expect("opens");
            disk.store(&key, &warm);
            prop_assert_eq!(disk.stats().stores, 1);
        }
        // "Restarted process": a fresh handle on the same directory.
        let disk = DiskCache::open(&dir).expect("re-opens");
        let loaded = disk.load(&key, warm.fingerprint).expect("loads");
        prop_assert_eq!(loaded.blob.as_bytes(), warm.blob.as_bytes());
        prop_assert_eq!(loaded.profile, warm.profile);
        prop_assert_eq!(loaded.fingerprint, warm.fingerprint);

        let from_disk = service::serve_point(&req, &loaded).expect("serves");
        let from_memory = service::serve_point(&req, &warm).expect("serves");
        prop_assert_eq!(from_disk, from_memory);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fast-gear warm-up is the chunked probe's own checkpoint, so its key
/// ends `/q{quantum}`: a spill written under the older `/g{quantum}` form
/// (a different warm-up procedure) is never served to a fast request, not
/// even from a colliding file name. Cycle-gear keys kept their form, and
/// their spills still load.
#[test]
fn old_fast_gear_spills_are_never_served_and_cycle_spills_still_load() {
    let cycle = SweepRequest {
        scale: 1,
        ..SweepRequest::default()
    };
    let cycle_key = "stbus-t3/distributed/bursty-posted/s1/x0xdab/b1/g0";
    assert_eq!(cycle.warm_key(), cycle_key);
    let fast = SweepRequest {
        fast_gear: Some(64),
        ..cycle.clone()
    };
    let old_fast_key = "stbus-t3/distributed/bursty-posted/s1/x0xdab/b1/g64";
    let key = fast.warm_key();
    assert_ne!(key, old_fast_key);
    let warm = service::warm_state(&fast).expect("warm state");

    let dir = spill_dir("old-fast-key");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::open(&dir).expect("opens");
    // The old file is not where the new key looks: a quiet miss.
    disk.store(old_fast_key, &warm);
    assert_ne!(disk.path_for(old_fast_key), disk.path_for(&key));
    assert!(disk.load(&key, warm.fingerprint).is_none());
    assert_eq!(disk.stats().rejected, 0);
    // Under the new key's file name its stored key refuses it.
    std::fs::copy(disk.path_for(old_fast_key), disk.path_for(&key)).expect("copies");
    assert!(disk.load(&key, warm.fingerprint).is_none());
    assert_eq!(disk.stats().rejected, 1);

    let cycle_warm = service::warm_state(&cycle).expect("warm state");
    disk.store(cycle_key, &cycle_warm);
    let loaded = disk
        .load(&cycle.warm_key(), cycle_warm.fingerprint)
        .expect("a cycle-gear spill still loads");
    assert_eq!(loaded.blob.as_bytes(), cycle_warm.blob.as_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_spills_are_rejected_without_poisoning_the_memory_cache() {
    let req = SweepRequest {
        scale: 1,
        ..SweepRequest::default()
    };
    let key = req.warm_key();
    let warm = service::warm_state(&req).expect("warm state");
    let dir = spill_dir("damage");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::open(&dir).expect("opens");
    disk.store(&key, &warm);
    let path = disk.path_for(&key);

    // Truncate the spill mid-blob: the load fails closed and evicts the
    // file, so the next probe is a quiet miss instead of a repeated error.
    let bytes = std::fs::read(&path).expect("reads spill");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncates");
    assert!(disk.load(&key, warm.fingerprint).is_none());
    assert!(!path.exists(), "rejected spill must be evicted from disk");
    assert_eq!(disk.stats().rejected, 1);
    assert!(
        disk.load(&key, warm.fingerprint).is_none(),
        "quiet miss now"
    );
    assert_eq!(disk.stats().rejected, 1, "no second rejection");

    // A fingerprint-mismatched spill (stale structure) is likewise evicted.
    disk.store(&key, &warm);
    assert!(disk.load(&key, warm.fingerprint ^ 1).is_none());
    assert!(!path.exists(), "stale spill must be evicted from disk");

    // None of this touched the in-memory cache: the same key still warms
    // up exactly once and serves hits afterwards.
    let cache: WarmCache<u64> = WarmCache::new(4);
    let (first, _) = cache
        .get_or_compute(&key, warm.fingerprint, || Ok::<u64, String>(7))
        .expect("computes");
    assert_eq!(*first, 7);
    assert!(cache.peek(&key, warm.fingerprint).is_some());
    assert_eq!(cache.stats().misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
