//! Raft machinery probe: group-commit batch occupancy under concurrent
//! multi-range writers, and the quiescence heartbeat A/B over a cluster
//! of cold ranges.
//!
//! The batched phase opens a short flush window so concurrent proposals
//! to the same range coalesce into multi-command Raft entries; the
//! unbatched baseline keeps the window at zero, where only same-instant
//! arrivals share an entry. The quiescence phase measures leader
//! heartbeat messages per simulated second over an idle cluster with
//! quiescence off and on.

use mr_kv::cluster::{Cluster, ClusterConfig};
use mr_kv::zone::SurvivalGoal;
use mr_proto::Key;
use mr_sim::{NodeId, SimDuration, SimTime};

use super::{drive_txns, home_range, run_for, span, table1_cluster, ProbeReport, TxnMode};
use crate::json::Json;

/// One batching phase: concurrent multi-range writers driven closed-loop,
/// Raft entry and command counts read from the registry afterwards.
#[derive(Clone)]
pub struct RaftPhase {
    /// Commands proposed through the batched path.
    pub commands: u64,
    /// Raft entries those commands were coalesced into.
    pub entries: u64,
    /// `commands / entries` — group commit works when this exceeds 1.
    pub mean_occupancy: f64,
    /// Commands per simulated second (client-observed throughput proxy).
    pub proposals_per_sec: f64,
    /// Transactions the phase committed.
    pub txns: u64,
    /// Leaseholder reads served without a Raft proposal (each txn opens
    /// with one read, so this should equal `txns`).
    pub read_fast_path: u64,
}

/// The full probe: group-commit occupancy with and without a flush window,
/// plus heartbeat rates over a cold cluster with and without quiescence.
#[derive(Clone)]
pub struct RaftProbeReport {
    /// Flush window of [`RAFT_PROBE_FLUSH_MS`] ms: concurrent proposals
    /// coalesce into multi-command entries.
    pub batched: RaftPhase,
    /// Zero flush window: only same-instant arrivals share an entry — the
    /// baseline the batched phase must beat on occupancy.
    pub unbatched: RaftPhase,
    /// Leaseholder reads served without a Raft proposal (read fast path)
    /// across both phases.
    pub read_fast_path: u64,
    /// Idle ranges in the quiescence A/B cluster.
    pub cold_ranges: u32,
    /// Heartbeat (empty AppendEntries) messages per simulated second over
    /// the idle window with quiescence disabled / enabled.
    pub hb_per_sec_off: f64,
    pub hb_per_sec_on: f64,
    /// `hb_off / max(hb_on, 1)` as totals — the suppression factor.
    pub heartbeat_suppression: f64,
}

/// Flush window used by the batched phase, in milliseconds.
pub const RAFT_PROBE_FLUSH_MS: u64 = 2;

/// The Table 1 corner with `zs/` + `za/` ZONE-survivable and `rs/`
/// REGION-survivable ranges homed in region 0, plus `cold<i>/` ranges no
/// workload ever touches.
fn raft_probe_cluster(seed: u64, flush: SimDuration, quiesce: bool, cold_ranges: u32) -> Cluster {
    let mut c = table1_cluster(ClusterConfig {
        seed,
        raft_flush_interval: flush,
        raft_quiescence: quiesce,
        ..ClusterConfig::default()
    });
    home_range(&mut c, span("zs/", "zs0"), SurvivalGoal::Zone);
    home_range(&mut c, span("za/", "za0"), SurvivalGoal::Zone);
    home_range(&mut c, span("rs/", "rs0"), SurvivalGoal::Region);
    for i in 0..cold_ranges {
        let cold = span(&format!("cold{i}/"), &format!("cold{i}0"));
        home_range(&mut c, cold, SurvivalGoal::Zone);
    }
    c
}

/// One batching phase: 4 clients on each region-0 gateway, every txn
/// reading then writing one `zs/` and one `za/` key (multi-range, so the
/// STAGING record and second intent live in different Raft logs).
fn raft_batching_phase(seed: u64, flush: SimDuration, txns_per_client: usize) -> RaftPhase {
    let mut c = raft_probe_cluster(seed, flush, true, 0);
    c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
    c.scrape_now();
    let before = c.metrics();
    let t0 = c.now();
    let mut clients = Vec::new();
    for node in 0..3u32 {
        for ci in 0..4u32 {
            let shapes = (0..txns_per_client)
                .map(|i| {
                    vec![
                        Key::from(format!("zs/n{node}c{ci}_{i}").as_str()),
                        Key::from(format!("za/n{node}c{ci}_{i}").as_str()),
                    ]
                })
                .collect();
            clients.push((NodeId(node), shapes));
        }
    }
    let mode = TxnMode {
        read_first: true,
        retry: false,
    };
    let txns = drive_txns(&mut c, clients, mode).0.len() as u64;
    let dt_secs = (c.now().nanos() - t0.nanos()) as f64 / 1e9;
    c.scrape_now();
    let after = c.metrics();
    let commands = after.proposals_batched - before.proposals_batched;
    let entries = after.entries_proposed - before.entries_proposed;
    RaftPhase {
        commands,
        entries,
        mean_occupancy: commands as f64 / entries.max(1) as f64,
        proposals_per_sec: commands as f64 / dt_secs,
        txns,
        read_fast_path: after.read_fast_path - before.read_fast_path,
    }
}

/// Heartbeat messages per simulated second over a 20s idle window on a
/// cluster with `cold` untouched ranges, measured after a 5s settle.
fn raft_heartbeat_phase(seed: u64, quiesce: bool, cold: u32) -> (f64, u64) {
    let mut c = raft_probe_cluster(seed, SimDuration::ZERO, quiesce, cold);
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let before = c.metrics().heartbeats_sent;
    run_for(&mut c, SimDuration::from_secs(20));
    let total = c.metrics().heartbeats_sent - before;
    (total as f64 / 20.0, total)
}

/// Run the full raft probe: batched vs unbatched occupancy under
/// concurrent multi-range writers, and the quiescence heartbeat A/B over
/// `cold_ranges` idle ranges. Deterministic for a fixed seed.
pub fn raft_probe(seed: u64, txns_per_client: usize, cold_ranges: u32) -> RaftProbeReport {
    let batched = raft_batching_phase(
        seed,
        SimDuration::from_millis(RAFT_PROBE_FLUSH_MS),
        txns_per_client,
    );
    let unbatched = raft_batching_phase(seed, SimDuration::ZERO, txns_per_client);
    let read_fast_path = batched.read_fast_path + unbatched.read_fast_path;
    let (hb_per_sec_off, hb_off) = raft_heartbeat_phase(seed, false, cold_ranges);
    let (hb_per_sec_on, hb_on) = raft_heartbeat_phase(seed, true, cold_ranges);
    RaftProbeReport {
        batched,
        unbatched,
        read_fast_path,
        cold_ranges,
        hb_per_sec_off,
        hb_per_sec_on,
        heartbeat_suppression: hb_off as f64 / hb_on.max(1) as f64,
    }
}

impl ProbeReport for RaftProbeReport {
    fn json(&self) -> String {
        let phase = |p: &RaftPhase| {
            Json::obj([
                ("commands", p.commands.into()),
                ("entries", p.entries.into()),
                ("mean_occupancy", Json::fixed(p.mean_occupancy, 3)),
                ("proposals_per_sec", Json::fixed(p.proposals_per_sec, 1)),
                ("txns", p.txns.into()),
                ("read_fast_path", p.read_fast_path.into()),
            ])
        };
        let quiescence = Json::obj([
            ("cold_ranges", self.cold_ranges.into()),
            ("hb_per_sec_off", Json::fixed(self.hb_per_sec_off, 1)),
            ("hb_per_sec_on", Json::fixed(self.hb_per_sec_on, 1)),
            ("suppression", Json::fixed(self.heartbeat_suppression, 1)),
        ]);
        Json::doc([
            ("batched", phase(&self.batched)),
            ("unbatched", phase(&self.unbatched)),
            ("read_fast_path", self.read_fast_path.into()),
            ("quiescence", quiescence),
        ])
    }

    /// Fails if mean batch occupancy sinks toward one command per entry,
    /// if the flush window costs real throughput, if quiescence stops
    /// suppressing idle heartbeats by >=10x, or if leaseholder reads stop
    /// riding the fast path.
    fn gate(&self) -> Vec<String> {
        let (b, u) = (&self.batched, &self.unbatched);
        let mut failures = Vec::new();
        // Group commit must actually fill entries: mean occupancy well
        // above one command per entry, and above the zero-window baseline.
        if b.mean_occupancy <= 1.5 {
            failures.push(format!(
                "batched mean occupancy {:.2} <= 1.5 — group commit is not coalescing",
                b.mean_occupancy
            ));
        }
        if b.mean_occupancy <= u.mean_occupancy {
            failures.push(format!(
                "batched occupancy {:.2} did not beat the zero-window baseline {:.2}",
                b.mean_occupancy, u.mean_occupancy
            ));
        }
        // The flush window trades a bounded latency bump for fewer
        // consensus rounds; it must not cost real throughput.
        if b.proposals_per_sec < 0.5 * u.proposals_per_sec {
            failures.push(format!(
                "batched throughput {:.1}/s fell below half the unbatched {:.1}/s",
                b.proposals_per_sec, u.proposals_per_sec
            ));
        }
        // Quiescence must collapse the idle heartbeat rate by an order of
        // magnitude (the cold ranges stop heartbeating entirely; the
        // residual rate comes from the settle tail before each leader
        // quiesced).
        if self.heartbeat_suppression < 10.0 {
            failures.push(format!(
                "heartbeat suppression {:.1}x < 10x ({:.1}/s off vs {:.1}/s on)",
                self.heartbeat_suppression, self.hb_per_sec_off, self.hb_per_sec_on
            ));
        }
        // Every transaction's opening read must ride the leaseholder fast
        // path instead of proposing.
        if self.read_fast_path < b.txns + u.txns {
            failures.push(format!(
                "read fast path served {} of {} leaseholder reads",
                self.read_fast_path,
                b.txns + u.txns
            ));
        }
        failures
    }
}
