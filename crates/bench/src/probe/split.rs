//! Range-lifecycle probe: the same skewed remote workload against a
//! static single range and against the lifecycle controller (size/QPS
//! splits at the load median, cold merges, load-based lease rebalancing).
//!
//! Every client lives in regions 1 and 2 while the only range is homed in
//! region 0, so the static baseline pays cross-region RTT on each op
//! forever. With the controller on, the range splits on the region
//! boundary of the sampled load median and each half's lease moves toward
//! its demand. After the workload drains, the idle tail should fold the
//! split topology back down via cold-range merges.

use mr_kv::cluster::{Cluster, ClusterConfig, LifecycleConfig};
use mr_kv::zone::SurvivalGoal;
use mr_proto::{Key, Span};
use mr_sim::{NodeId, SimDuration, SimTime};

use super::{drive_txns, home_range, table1_cluster, ProbeReport, TxnMode};
use crate::json::Json;

/// One lifecycle phase: a skewed remote workload against a keyspace that
/// starts as a single range homed far from its traffic.
#[derive(Clone)]
pub struct SplitPhase {
    /// Transactions committed (fixed per phase; elapsed time varies).
    pub txns: u64,
    /// Transactions retried after a surgery- or lease-move-induced abort.
    pub retries: u64,
    /// Committed transactions per simulated second — the closed-loop
    /// throughput the phase sustained.
    pub ops_per_sec: f64,
    /// Live ranges when the workload drained.
    pub ranges: usize,
    /// `range_split` / `range_merge` / `lease_rebalance` events during the
    /// workload.
    pub splits: usize,
    pub merges: usize,
    pub lease_rebalances: usize,
    /// p99 of descriptor-surgery latency (propose → apply) in ms; 0 when
    /// no split happened.
    pub split_p99_ms: f64,
    /// The hottest range's share of total QPS at drain time, in milli
    /// (1000 = all load on one range — the static baseline by definition).
    pub hottest_share_milli: u64,
    /// Lifecycle ticks from workload start until the controller's last
    /// action — how fast the topology converged.
    pub convergence_ticks: u64,
    /// Live ranges after a 90s idle tail: cold-range merges should fold
    /// the split topology back down.
    pub ranges_after_idle: usize,
}

/// The full probe: the same workload with the lifecycle controller off
/// (static single range) and on (splits + rebalancing).
#[derive(Clone)]
pub struct SplitProbeReport {
    pub baseline: SplitPhase,
    pub lifecycle: SplitPhase,
}

/// The split-probe cluster: the Table 1 corner with one REGION-survivable
/// range over the whole keyspace homed in region 0 — every client is in
/// regions 1 and 2, so the static topology pays cross-region RTT on each
/// op until the controller splits at the load median and moves each
/// half's lease toward its demand.
fn split_probe_cluster(seed: u64, lifecycle_on: bool) -> Cluster {
    let mut c = table1_cluster(ClusterConfig {
        seed,
        // Descriptor surgery drops in-flight requests to the old
        // incarnation; they must time out and retry, not hang — and the
        // stall is pure dead time, so keep it just above the worst RTT.
        rpc_timeout: Some(SimDuration::from_millis(400)),
        lifecycle: LifecycleConfig {
            enabled: lifecycle_on,
            // ~12 remote closed-loop clients sustain 50-100 qps on the
            // single range; split well below that, and keep the rebalance
            // floor low enough that each post-split half (half the
            // traffic) still clears it. Tick and cooldown are tightened so
            // convergence is a prefix of the run, not the whole run.
            split_qps_milli: 40_000,
            rebalance_min_qps_milli: 500,
            interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(3),
            ..LifecycleConfig::default()
        },
        ..ClusterConfig::default()
    });
    home_range(&mut c, Span::all(), SurvivalGoal::Region);
    c
}

/// Run one phase: 2 clients on each node of regions 1 and 2, each
/// committing `txns_per_client` single-key read-write transactions on its
/// own small key set (`u1/...` sorts wholly before `u2/...`, so the load
/// median falls on the region boundary). A transaction that descriptor
/// surgery or a lease move aborts mid-flight is retried from scratch.
fn split_phase(seed: u64, lifecycle_on: bool, txns_per_client: usize) -> SplitPhase {
    let mut c = split_probe_cluster(seed, lifecycle_on);
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let mut clients = Vec::new();
    for region in 1..3u32 {
        for node in (region * 3)..(region * 3 + 3) {
            for ci in 0..2u32 {
                let txns = (0..txns_per_client)
                    .rev()
                    .map(|i| {
                        vec![Key::from(
                            format!("u{region}/n{node}c{ci}k{}", i % 4).as_str(),
                        )]
                    })
                    .collect();
                clients.push((NodeId(node), txns));
            }
        }
    }
    let t0 = c.now();
    let mode = TxnMode {
        read_first: true,
        retry: true,
    };
    let (latencies, retries) = drive_txns(&mut c, clients, mode);
    let txns = latencies.len() as u64;
    let drained = c.now();
    let dt_secs = (drained.nanos() - t0.nanos()) as f64 / 1e9;

    let hot = c.obs.load.hot_ranges(drained);
    let total_qps: u64 = hot.iter().map(|s| s.qps_milli).sum();
    let hottest_share_milli = hot
        .first()
        .map_or(1000, |s| s.qps_milli * 1000 / total_qps.max(1));
    let mut lat: Vec<u64> = c.split_latencies().to_vec();
    lat.sort_unstable();
    let split_p99_ms = if lat.is_empty() {
        0.0
    } else {
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)] as f64 / 1e6
    };
    let convergence_ticks = c
        .last_lifecycle_action()
        .map_or(0, |t| t.0.saturating_sub(t0.0))
        .div_ceil(c.cfg.lifecycle.interval.nanos().max(1));
    let (splits, merges, lease_rebalances, ranges) = (
        c.events.count_kind("range_split"),
        c.events.count_kind("range_merge"),
        c.events.count_kind("lease_rebalance"),
        c.registry().len(),
    );

    // Idle tail: traffic is gone, so the halves go cold and the merge pass
    // should fold the keyspace back down (and leases re-home).
    c.run_until(SimTime(
        drained.nanos() + SimDuration::from_secs(90).nanos(),
    ));
    SplitPhase {
        txns,
        retries,
        ops_per_sec: txns as f64 / dt_secs,
        ranges,
        splits,
        merges,
        lease_rebalances,
        split_p99_ms,
        hottest_share_milli,
        convergence_ticks,
        ranges_after_idle: c.registry().len(),
    }
}

/// Run the full split probe: static baseline vs lifecycle-enabled run of
/// the same skewed remote workload. Deterministic for a fixed seed.
pub fn split_probe(seed: u64, txns_per_client: usize) -> SplitProbeReport {
    SplitProbeReport {
        baseline: split_phase(seed, false, txns_per_client),
        lifecycle: split_phase(seed, true, txns_per_client),
    }
}

impl ProbeReport for SplitProbeReport {
    fn json(&self) -> String {
        let phase = |p: &SplitPhase| {
            Json::obj([
                ("txns", p.txns.into()),
                ("retries", p.retries.into()),
                ("ops_per_sec", Json::fixed(p.ops_per_sec, 1)),
                ("ranges", p.ranges.into()),
                ("splits", p.splits.into()),
                ("merges", p.merges.into()),
                ("lease_rebalances", p.lease_rebalances.into()),
                ("split_p99_ms", Json::fixed(p.split_p99_ms, 3)),
                ("hottest_share_milli", p.hottest_share_milli.into()),
                ("convergence_ticks", p.convergence_ticks.into()),
                ("ranges_after_idle", p.ranges_after_idle.into()),
            ])
        };
        let speedup = self.lifecycle.ops_per_sec / self.baseline.ops_per_sec.max(1e-9);
        Json::doc([
            ("baseline", phase(&self.baseline)),
            ("lifecycle", phase(&self.lifecycle)),
            ("speedup", Json::fixed(speedup, 3)),
        ])
    }

    /// Fails if splits stop firing under load, if post-split throughput
    /// stops beating the single-range baseline, if load stops dispersing
    /// across the split ranges, if no lease moves toward demand, or if
    /// cold-range merges stop folding the keyspace back down once traffic
    /// ends.
    fn gate(&self) -> Vec<String> {
        let (base, life) = (&self.baseline, &self.lifecycle);
        let mut failures = Vec::new();
        if base.splits != 0 || base.ranges != 1 {
            failures.push(format!(
                "static baseline split anyway ({} splits, {} ranges)",
                base.splits, base.ranges
            ));
        }
        if life.splits < 1 {
            failures.push("lifecycle run produced no splits under the skewed workload".into());
        }
        if life.lease_rebalances < 1 {
            failures.push("no lease moved toward demand after the splits".into());
        }
        // The acceptance bar: post-split throughput scales past the
        // single-range baseline.
        if life.ops_per_sec <= base.ops_per_sec {
            failures.push(format!(
                "lifecycle throughput {:.1}/s did not beat the static baseline {:.1}/s",
                life.ops_per_sec, base.ops_per_sec
            ));
        }
        // Post-split the hottest range must no longer carry all the load.
        if life.hottest_share_milli >= 1000 {
            failures.push(format!(
                "hottest range still carries {}/1000 of the load after splitting",
                life.hottest_share_milli
            ));
        }
        if life.splits >= 1 && life.split_p99_ms <= 0.0 {
            failures.push("splits happened but no surgery latency was recorded".into());
        }
        // Hysteresis must not leave the keyspace shattered once traffic
        // stops.
        if life.ranges_after_idle >= life.ranges && life.ranges > 1 {
            failures.push(format!(
                "idle tail did not merge anything ({} ranges at drain, {} after idle)",
                life.ranges, life.ranges_after_idle
            ));
        }
        failures
    }
}
