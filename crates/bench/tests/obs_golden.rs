//! Golden tests for the observability-probe export: the JSON document
//! must carry the expected schema, show the heat-ranking and attribution
//! structure the probe exists to guard, and be byte-identical across
//! same-seed runs (the determinism contract every BENCH_*.json export
//! obeys — here it also pins the `hot_ranges` / `metrics_history` /
//! `slow_txns` exports).

use mr_bench::probe::{obs_probe, ProbeReport, OBS_READ_HZ, OBS_WRITE_HZ};

#[test]
fn obs_probe_export_has_expected_schema_and_structure() {
    // 40 sim-seconds = four EWMA half-lives: the decayed rate converges to
    // within ~6% of the driven rate, inside the 10% gate.
    let r = obs_probe(7, 40, 8);
    let json = r.json();
    for key in [
        "\"skew\"",
        "\"hot_range\"",
        "\"driven_qps_milli\"",
        "\"hot_ranges\"",
        "\"rates\"",
        "\"expected_milli\"",
        "\"fine_milli\"",
        "\"coarse_milli\"",
        "\"attribution\"",
        "\"named_fraction\"",
        "\"instrument_count\"",
        "\"slow_txns\"",
        "\"hot_ranges_export\"",
        "\"metrics_history\"",
        "\"fine_dropped\"",
        "\"coarse\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // The skewed range ranks first with a decayed QPS within 10% of the
    // open-loop rate the probe actually drove.
    let top = r.hot.first().expect("heat ranking is empty");
    assert_eq!(top.range, r.hot_range, "{json}");
    let driven = (OBS_READ_HZ * 1000) as f64;
    assert!(
        (top.qps_milli as f64 - driven).abs() <= 0.10 * driven,
        "decayed QPS {} vs driven {driven}: {json}",
        top.qps_milli
    );
    // The warm range is tracked too, well below the hot one.
    assert!(r.hot.iter().any(|s| s.range == r.warm_range), "{json}");
    assert!(top.qps_milli > 2 * (OBS_WRITE_HZ * 1000), "{json}");
    // Windowed rates agree with the driven commit rate at both
    // resolutions.
    let expected = r.expected_commit_rate_milli as f64;
    for rate in [r.commit_rate_fine_milli, r.commit_rate_coarse_milli] {
        assert!(
            (rate as f64 - expected).abs() <= 0.10 * expected,
            "rate {rate} vs {expected}: {json}"
        );
    }
    assert!(r.fine_samples > r.coarse_samples, "{json}");
    assert!(r.coarse_samples >= 2, "{json}");
    // Named components explain essentially all transaction latency.
    assert!(r.attr_txns > 0, "{json}");
    assert!(r.named_fraction() >= 0.95, "{json}");
    assert_eq!(
        r.attr_named_nanos + r.attr_other_nanos,
        r.attr_total_nanos,
        "breakdown must sum exactly: {json}"
    );
}

#[test]
fn obs_probe_export_is_deterministic_across_same_seed_runs() {
    let a = obs_probe(3, 15, 5).json();
    let b = obs_probe(3, 15, 5).json();
    assert_eq!(a, b, "same-seed exports diverged");
}
