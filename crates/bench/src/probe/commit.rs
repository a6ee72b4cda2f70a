//! Commit-latency probe: client-observed transaction latency (begin →
//! commit ack) under legacy synchronous commits vs write pipelining +
//! parallel commits, from every gateway region.
//!
//! The headline scenario is `multi`: writes to two ZONE-survivable ranges
//! homed in us-east1. From a remote gateway the legacy path costs two WAN
//! round trips (flush the intents, then write the commit record) while
//! parallel commits overlap them into one — the paper's §5.1 claim.

use mr_chaos::{build_chaos_cluster, ChaosConfig};
use mr_kv::zone::SurvivalGoal;
use mr_proto::Key;
use mr_sim::{NodeId, RegionId, SimDuration, SimTime};

use super::{drive_txns, home_range, run_for, span, ProbeReport, TxnMode};
use crate::json::Json;

/// One measured latency cell: client-observed transaction latency from
/// `txn_begin` to the commit acknowledgement, in simulated milliseconds.
#[derive(Clone)]
pub struct CommitCell {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub n: usize,
}

/// One probe row: a (gateway region, write-shape) scenario measured under
/// both commit modes against the home region's RTT.
#[derive(Clone)]
pub struct CommitRow {
    pub gateway_region: String,
    /// `"single"`: one write — the legacy 1PC fast path already commits
    /// this in one round trip, so pipelining must merely not regress it.
    /// `"multi"`: writes to two ZONE-survivable ranges homed in the same
    /// region — the paper's 2-RTT→1-RTT headline (legacy flushes intents,
    /// then writes the record; parallel commits overlap them). `"cross"`:
    /// a ZONE-survivable plus a REGION-survivable write, whose WAN quorum
    /// dominates but still hides the commit-record round trip.
    pub scenario: &'static str,
    /// Gateway-region ↔ home-region round trip.
    pub rtt_ms: f64,
    pub legacy: CommitCell,
    pub pipelined: CommitCell,
}

/// Every (scenario, gateway region) row, scenario-major.
#[derive(Clone)]
pub struct CommitReport {
    pub rows: Vec<CommitRow>,
}

/// `sorted_nanos[q]` in milliseconds (nearest rank).
fn quantile_ms(sorted_nanos: &[u64], q: f64) -> f64 {
    assert!(!sorted_nanos.is_empty());
    let idx = ((sorted_nanos.len() - 1) as f64 * q).round() as usize;
    sorted_nanos[idx] as f64 / 1e6
}

/// Measure client-observed transaction latency (begin → commit ack) for
/// single-range and multi-range write transactions from every gateway
/// region, once with legacy synchronous commits and once with pipelining +
/// parallel commits. Deterministic for a fixed seed.
pub fn commit_probe(seed: u64, txns_per_cell: usize) -> CommitReport {
    let scenarios: [(&'static str, fn(u32, usize) -> Vec<Key>); 3] = [
        ("single", |r, i| {
            vec![Key::from(format!("zs/p{r}_{i}").as_str())]
        }),
        ("multi", |r, i| {
            vec![
                Key::from(format!("zs/p{r}_{i}").as_str()),
                Key::from(format!("za/p{r}_{i}").as_str()),
            ]
        }),
        ("cross", |r, i| {
            vec![
                Key::from(format!("zs/p{r}_{i}").as_str()),
                Key::from(format!("rs/p{r}_{i}").as_str()),
            ]
        }),
    ];

    // cells[scenario][region] -> (legacy, pipelined) samples.
    let mut cells = vec![vec![(Vec::new(), Vec::new()); 3]; scenarios.len()];
    let mut rtts = [0.0f64; 3];
    let mut region_names = vec![String::new(); 3];

    for pipelined in [false, true] {
        let cfg = ChaosConfig {
            seed,
            pipelined_writes: pipelined,
            parallel_commits: pipelined,
            ..ChaosConfig::default()
        };
        let mut c = build_chaos_cluster(&cfg);
        // A second ZONE-survivable range homed alongside `zs/*`: the
        // `multi` scenario spans the two so the transaction cannot take
        // the 1PC fast path yet both intent quorums stay in-region.
        home_range(&mut c, span("za/", "za0"), SurvivalGoal::Zone);
        c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
        for (si, (_, mk)) in scenarios.iter().enumerate() {
            for region in 0..3u32 {
                let gateway = NodeId(region * 3);
                if !pipelined {
                    region_names[region as usize] =
                        c.topology().region_name(RegionId(region)).to_string();
                    rtts[region as usize] =
                        c.topology().nominal_rtt(gateway, NodeId(0)).nanos() as f64 / 1e6;
                }
                let offset = if pipelined { txns_per_cell } else { 0 };
                let shapes = (0..txns_per_cell).map(|i| mk(region, i + offset)).collect();
                let mode = TxnMode {
                    read_first: false,
                    retry: false,
                };
                let (samples, _) = drive_txns(&mut c, vec![(gateway, shapes)], mode);
                // Drain any straggling async intent resolutions before the
                // next cell.
                run_for(&mut c, SimDuration::from_secs(2));
                let slot = &mut cells[si][region as usize];
                if pipelined {
                    slot.1 = samples;
                } else {
                    slot.0 = samples;
                }
            }
        }
    }

    let cell = |mut samples: Vec<u64>| {
        samples.sort_unstable();
        CommitCell {
            p50_ms: quantile_ms(&samples, 0.5),
            p99_ms: quantile_ms(&samples, 0.99),
            n: samples.len(),
        }
    };
    let mut rows = Vec::new();
    for ((name, _), by_region) in scenarios.iter().zip(cells) {
        for (region, (legacy, pipelined)) in by_region.into_iter().enumerate() {
            rows.push(CommitRow {
                gateway_region: region_names[region].clone(),
                scenario: name,
                rtt_ms: rtts[region],
                legacy: cell(legacy),
                pipelined: cell(pipelined),
            });
        }
    }
    CommitReport { rows }
}

impl ProbeReport for CommitReport {
    fn json(&self) -> String {
        let cell = |c: &CommitCell| {
            Json::obj([
                ("p50_ms", Json::fixed(c.p50_ms, 3)),
                ("p99_ms", Json::fixed(c.p99_ms, 3)),
                ("n", c.n.into()),
            ])
        };
        let rows = self.rows.iter().map(|r| {
            Json::obj([
                ("gateway_region", Json::str(&r.gateway_region)),
                ("scenario", Json::str(r.scenario)),
                ("rtt_ms", Json::fixed(r.rtt_ms, 3)),
                ("legacy", cell(&r.legacy)),
                ("pipelined", cell(&r.pipelined)),
            ])
        });
        Json::doc([("rows", Json::arr(rows))])
    }

    /// Fails if the round-trip structure regresses: multi-range commits
    /// must cost ~1 WAN RTT pipelined (~2 legacy), and pipelining must
    /// never be slower than the legacy path. Thresholds carry generous
    /// margins over the deterministic measurements so only a structural
    /// regression (an extra WAN round trip reappearing on the commit path)
    /// trips them, not jitter-level drift.
    fn gate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for r in &self.rows {
            let who = format!("{}/{}", r.gateway_region, r.scenario);
            let (legacy, piped, rtt) = (r.legacy.p50_ms, r.pipelined.p50_ms, r.rtt_ms);
            // Pipelining must never be slower than the legacy path.
            if piped > legacy * 1.05 {
                failures.push(format!(
                    "{who}: pipelined p50 {piped:.1}ms exceeds legacy p50 {legacy:.1}ms"
                ));
            }
            // Remote gateways are where the WAN round trip is saved; the
            // home region's latencies are sub-RTT either way, so no
            // structure to guard.
            if rtt < 1.0 {
                continue;
            }
            match r.scenario {
                // 1PC keeps single-range commits at one round trip in both
                // modes.
                "single" => {
                    if piped > 1.4 * rtt {
                        failures.push(format!(
                            "{who}: pipelined p50 {piped:.1}ms above 1.4×RTT ({rtt:.1}ms) — single-range commit is not one round trip"
                        ));
                    }
                }
                // The headline: legacy = flush (1 RTT) + record (1 RTT) ≈
                // 2×RTT; parallel commits overlap them ≈ 1×RTT.
                "multi" => {
                    if legacy < 1.6 * rtt {
                        failures.push(format!(
                            "{who}: legacy p50 {legacy:.1}ms below 1.6×RTT ({rtt:.1}ms) — the baseline no longer pays the commit round trip?"
                        ));
                    }
                    if piped > 1.4 * rtt {
                        failures.push(format!(
                            "{who}: pipelined p50 {piped:.1}ms above 1.4×RTT ({rtt:.1}ms) — commit is not one round trip"
                        ));
                    }
                    if piped > 0.65 * legacy {
                        failures.push(format!(
                            "{who}: pipelined p50 {piped:.1}ms not well below legacy p50 {legacy:.1}ms"
                        ));
                    }
                }
                // The REGION-survivable write costs ~2 WAN legs (routing +
                // quorum) in both modes; pipelining still hides the
                // commit-record round trip behind it.
                _ => {
                    if piped > 0.8 * legacy {
                        failures.push(format!(
                            "{who}: pipelined p50 {piped:.1}ms did not save a round trip over legacy {legacy:.1}ms"
                        ));
                    }
                }
            }
        }
        failures
    }
}
