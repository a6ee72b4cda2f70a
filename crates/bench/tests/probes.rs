//! Every probe at `Scale::SMALL`: the real report passes its gate, a
//! planted bad report trips it, and two same-seed runs produce identical
//! documents and exports.

use mr_bench::probe::{
    chaos_probe, commit_probe, obs_probe, perf_probe, raft_probe, run_probe, split_probe,
    storage_probe, ProbeReport, Scale, CHAOS_SEEDS, METRIC_BUDGET, PROBES, SEED,
};

/// A planted defect: the text one of the gate's failures must contain,
/// and the edit that plants it.
type Plant<R> = (&'static str, fn(&mut R));

/// `real` must pass its gate, and each planted copy must fail it with the
/// expected message.
fn check<R: ProbeReport + Clone>(name: &str, real: R, plants: &[Plant<R>]) {
    let failures = real.gate();
    assert!(
        failures.is_empty(),
        "{name}: real report fails: {failures:?}"
    );
    for (expect, plant) in plants {
        let mut bad = real.clone();
        plant(&mut bad);
        let failures = bad.gate();
        assert!(
            failures.iter().any(|f| f.contains(expect)),
            "{name}: planting {expect:?} gave {failures:?}"
        );
    }
}

#[test]
fn gates_pass_real_reports_and_trip_on_planted_ones() {
    let s = Scale::SMALL;
    check(
        "perf",
        perf_probe(SEED, s.perf_ops),
        &[
            ("do not conform", |r| r.replication_violations = 1),
            ("invariant-monitor", |r| r.monitor_violations = 1),
        ],
    );
    check(
        "chaos",
        chaos_probe(&CHAOS_SEEDS[..s.chaos_seeds]),
        &[("1 checker violations", |r| {
            r.scenarios[0].checker_violations = 1
        })],
    );
    check(
        "commit",
        commit_probe(SEED, s.commit_txns),
        &[
            ("above 1.4×RTT", |r| {
                for row in r.rows.iter_mut().filter(|x| x.scenario == "multi") {
                    row.pipelined.p50_ms = row.rtt_ms * 1.41;
                }
            }),
            ("exceeds legacy", |r| {
                r.rows[0].pipelined.p50_ms = r.rows[0].legacy.p50_ms * 1.06
            }),
            ("below 1.6×RTT", |r| {
                for row in r.rows.iter_mut().filter(|x| x.scenario == "multi") {
                    row.legacy.p50_ms = row.rtt_ms * 1.59;
                }
            }),
            ("did not save a round trip", |r| {
                for row in r.rows.iter_mut().filter(|x| x.scenario == "cross") {
                    row.pipelined.p50_ms = row.legacy.p50_ms * 0.81;
                }
            }),
        ],
    );
    check(
        "raft",
        raft_probe(SEED, s.raft_txns, s.raft_cold_ranges),
        &[
            ("<= 1.5", |r| r.batched.mean_occupancy = 1.0),
            ("fell below half", |r| {
                r.batched.proposals_per_sec = 0.49 * r.unbatched.proposals_per_sec
            }),
            ("< 10x", |r| r.heartbeat_suppression = 9.9),
            ("read fast path served", |r| r.read_fast_path -= 1),
        ],
    );
    check(
        "obs",
        obs_probe(SEED, s.obs_skew_secs, s.obs_txns),
        &[
            ("exceeds the budget", |r| {
                r.instrument_count = METRIC_BUDGET + 1
            }),
            ("explain only", |r| {
                r.attr_named_nanos = r.attr_total_nanos * 94 / 100
            }),
            ("not within 10%", |r| r.commit_rate_fine_milli /= 2),
            ("expected the skewed", |r| r.hot.swap(0, 1)),
        ],
    );
    check(
        "split",
        split_probe(SEED, s.split_txns),
        &[
            ("no splits", |r| r.lifecycle.splits = 0),
            ("did not beat", |r| {
                r.lifecycle.ops_per_sec = r.baseline.ops_per_sec
            }),
            ("no lease moved", |r| r.lifecycle.lease_rebalances = 0),
            ("did not merge", |r| {
                r.lifecycle.ranges_after_idle = r.lifecycle.ranges
            }),
        ],
    );
    check(
        "storage",
        storage_probe(SEED),
        &[
            ("899/1000", |r| r.bloom_skip_milli = 899),
            ("499/1000", |r| r.gc_reclaim_milli = 499),
            ("AOST read", |r| r.protected_read_ok = false),
            ("BelowGcThreshold", |r| {
                r.below_threshold_read_errors = false
            }),
            ("WAL replay", |r| r.recovered_versions += 1),
        ],
    );
}

#[test]
fn same_seed_probe_runs_are_identical() {
    for name in PROBES {
        let run = || {
            let r = run_probe(name, &Scale::SMALL).expect("known probe");
            (r.json(), r.files())
        };
        let (a, b) = (run(), run());
        assert!(a.0 == b.0, "{name}: documents diverged:\n{}\n{}", a.0, b.0);
        assert_eq!(a.1.len(), b.1.len(), "{name}: export counts diverged");
        for ((file, x), (_, y)) in a.1.iter().zip(&b.1) {
            assert!(x == y, "{name}: {file} diverged");
        }
    }
}
