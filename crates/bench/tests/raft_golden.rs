//! Golden tests for the raft-probe export: the JSON document must carry
//! the expected schema, show the batching and quiescence structure the
//! probe exists to guard, and be byte-identical across same-seed runs
//! (the determinism contract every BENCH_*.json export obeys).

use mr_bench::probe::{raft_probe, ProbeReport};

#[test]
fn raft_probe_export_has_expected_schema_and_structure() {
    let r = raft_probe(7, 6, 20);
    let json = r.json();
    for key in [
        "\"batched\"",
        "\"unbatched\"",
        "\"commands\"",
        "\"entries\"",
        "\"mean_occupancy\"",
        "\"proposals_per_sec\"",
        "\"txns\"",
        "\"read_fast_path\"",
        "\"quiescence\"",
        "\"cold_ranges\"",
        "\"hb_per_sec_off\"",
        "\"hb_per_sec_on\"",
        "\"suppression\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Both phases committed every transaction and served every opening
    // read off the leaseholder fast path.
    assert_eq!(r.batched.txns, r.unbatched.txns);
    assert_eq!(r.batched.read_fast_path, r.batched.txns);
    assert_eq!(r.unbatched.read_fast_path, r.unbatched.txns);
    // Same command stream, fewer consensus rounds: the flush window must
    // lift occupancy above both the floor and the zero-window baseline.
    assert_eq!(r.batched.commands, r.unbatched.commands);
    assert!(r.batched.entries < r.unbatched.entries, "{json}");
    assert!(r.batched.mean_occupancy > 1.5, "{json}");
    assert!(
        r.batched.mean_occupancy > r.unbatched.mean_occupancy,
        "{json}"
    );
    // Quiescence collapses the idle heartbeat rate by ≥10x.
    assert!(r.hb_per_sec_off > 0.0, "{json}");
    assert!(r.heartbeat_suppression >= 10.0, "{json}");
}

#[test]
fn raft_probe_export_is_deterministic_across_same_seed_runs() {
    let a = raft_probe(3, 4, 10).json();
    let b = raft_probe(3, 4, 10).json();
    assert_eq!(a, b, "same-seed exports diverged");
}
