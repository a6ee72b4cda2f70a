//! Golden tests for the commit-latency probe export: the JSON document
//! must carry the expected schema and be byte-identical across same-seed
//! runs (the determinism contract every BENCH_*.json export obeys).

use mr_bench::probe::{commit_probe, ProbeReport};

#[test]
fn commit_probe_export_has_expected_schema() {
    let report = commit_probe(7, 4);
    // 3 scenarios × 3 gateway regions.
    assert_eq!(report.rows.len(), 9);
    let json = report.json();
    for key in [
        "\"rows\"",
        "\"gateway_region\"",
        "\"scenario\"",
        "\"rtt_ms\"",
        "\"legacy\"",
        "\"pipelined\"",
        "\"p50_ms\"",
        "\"p99_ms\"",
        "\"n\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for scenario in ["\"single\"", "\"multi\"", "\"cross\""] {
        assert_eq!(
            json.matches(scenario).count(),
            3,
            "expected one {scenario} row per region"
        );
    }
    for region in ["us-east1", "us-west1", "europe-west2"] {
        assert_eq!(json.matches(region).count(), 3, "regions in {json}");
    }
    // Sanity on the measured structure: every cell recorded all txns, and
    // the pipelined multi-range commit beat the legacy one from every
    // remote gateway.
    for r in &report.rows {
        assert_eq!(r.legacy.n, 4);
        assert_eq!(r.pipelined.n, 4);
        if r.scenario == "multi" && r.rtt_ms > 1.0 {
            assert!(
                r.pipelined.p50_ms < r.legacy.p50_ms,
                "{}/{}: {} !< {}",
                r.gateway_region,
                r.scenario,
                r.pipelined.p50_ms,
                r.legacy.p50_ms
            );
        }
    }
}

#[test]
fn commit_probe_export_is_deterministic_across_same_seed_runs() {
    let a = commit_probe(3, 3).json();
    let b = commit_probe(3, 3).json();
    assert_eq!(a, b, "same-seed exports diverged");
}
