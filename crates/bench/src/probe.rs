//! The CI probes: small fixed-seed experiments that guard the paper's
//! headline claims, each gated by thresholds over its own report.
//!
//! Every probe is a library function returning a report that renders
//! itself as a deterministic `BENCH_<name>.json` document and checks
//! itself against its gate. The `probe` binary runs them by name at
//! [`Scale::DEFAULT`]; the tests run them at [`Scale::SMALL`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mr_kv::cluster::{Cluster, ClusterConfig};
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_kv::TxnHandle;
use mr_proto::{Key, KvError, RangeId, Span, Value};
use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};

mod chaos;
mod commit;
mod obs;
mod perf;
mod raft;
mod split;
mod storage;

pub use chaos::{chaos_probe, ChaosReport, ChaosScenario, CHAOS_SEEDS};
pub use commit::{commit_probe, CommitCell, CommitReport, CommitRow};
pub use obs::{obs_probe, ObsProbeReport, METRIC_BUDGET, OBS_READ_HZ, OBS_WRITE_HZ};
pub use perf::{perf_probe, HistSummary, PerfReport};
pub use raft::{raft_probe, RaftPhase, RaftProbeReport, RAFT_PROBE_FLUSH_MS};
pub use split::{split_probe, SplitPhase, SplitProbeReport};
pub use storage::{storage_probe, StorageProbeReport};

/// The seed every probe runs with.
pub const SEED: u64 = 1;

/// Every probe, in the order `probe` runs them when none are named.
pub const PROBES: [&str; 7] = ["perf", "chaos", "commit", "raft", "obs", "split", "storage"];

/// Workload size of every probe.
pub struct Scale {
    /// YCSB ops per REGIONAL-phase client (the GLOBAL phase runs a fifth).
    pub perf_ops: u64,
    /// How many of [`CHAOS_SEEDS`] to run.
    pub chaos_seeds: usize,
    /// Transactions per (scenario, gateway, commit mode) cell.
    pub commit_txns: usize,
    /// Transactions per batching-phase client.
    pub raft_txns: usize,
    /// Idle ranges in the quiescence A/B cluster.
    pub raft_cold_ranges: u32,
    /// Simulated seconds of open-loop read skew.
    pub obs_skew_secs: u64,
    /// Closed-loop transactions in the attribution phase.
    pub obs_txns: usize,
    /// Transactions per split-probe client.
    pub split_txns: usize,
}

impl Scale {
    /// The scale the published probe numbers come from.
    pub const DEFAULT: Scale = Scale {
        perf_ops: 500,
        chaos_seeds: CHAOS_SEEDS.len(),
        commit_txns: 30,
        raft_txns: 40,
        raft_cold_ranges: 100,
        obs_skew_secs: 60,
        obs_txns: 30,
        split_txns: 240,
    };

    /// Small enough for the test suite; every gate still passes.
    pub const SMALL: Scale = Scale {
        perf_ops: 5,
        chaos_seeds: 1,
        commit_txns: 6,
        raft_txns: 6,
        raft_cold_ranges: 20,
        // Four EWMA half-lives: the decayed rate converges to within ~6%
        // of the driven rate, inside the 10% gate.
        obs_skew_secs: 40,
        obs_txns: 8,
        split_txns: 80,
    };
}

/// A finished probe.
pub trait ProbeReport {
    /// The `BENCH_<name>.json` document.
    fn json(&self) -> String;
    /// Every violated gate condition; empty when the report passes.
    fn gate(&self) -> Vec<String>;
    /// Extra files to write next to the document: `(relative path,
    /// contents)`.
    fn files(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// Run the probe called `name` at `scale`; `None` for an unknown name.
pub fn run_probe(name: &str, scale: &Scale) -> Option<Box<dyn ProbeReport>> {
    Some(match name {
        "perf" => Box::new(perf_probe(SEED, scale.perf_ops)),
        "chaos" => Box::new(chaos_probe(&CHAOS_SEEDS[..scale.chaos_seeds])),
        "commit" => Box::new(commit_probe(SEED, scale.commit_txns)),
        "raft" => Box::new(raft_probe(SEED, scale.raft_txns, scale.raft_cold_ranges)),
        "obs" => Box::new(obs_probe(SEED, scale.obs_skew_secs, scale.obs_txns)),
        "split" => Box::new(split_probe(SEED, scale.split_txns)),
        "storage" => Box::new(storage_probe(SEED)),
        _ => return None,
    })
}

/// Advance simulated time by `d`.
fn run_for(c: &mut Cluster, d: SimDuration) {
    c.run_until(SimTime(c.now().nanos() + d.nanos()));
}

/// The three-region corner of Table 1 (us-east1, us-west1, europe-west2;
/// RTTs 63, 87 and 132 ms) with three nodes per region.
fn table1_cluster(cfg: ClusterConfig) -> Cluster {
    let regions = RttMatrix::paper_table1_regions();
    let rtt = RttMatrix::from_upper_millis(3, &[&[63, 87], &[132]]);
    Cluster::new(Topology::build(&regions[..3], 3, rtt), cfg)
}

/// Allocate a range over `span` for a three-region database homed in
/// region 0 with survival `goal`.
fn home_range(c: &mut Cluster, span: Span, goal: SurvivalGoal) -> RangeId {
    let regions: Vec<RegionId> = (0..3).map(RegionId).collect();
    let zc = derive_zone_config(
        RegionId(0),
        &regions,
        goal,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(span, zc).expect("allocate range")
}

fn span(start: &str, end: &str) -> Span {
    Span::new(Key::from(start), Key::from(end))
}

/// How [`drive_txns`] runs each transaction.
#[derive(Clone, Copy)]
struct TxnMode {
    /// Open with a read of the first key (the leaseholder fast path).
    read_first: bool,
    /// Roll back and restart a transaction whose op fails, instead of
    /// panicking.
    retry: bool,
}

/// One closed-loop client: its gateway and the transactions it runs in
/// order, each given as the keys it writes.
type TxnClient = (NodeId, Vec<Vec<Key>>);

struct Drive {
    mode: TxnMode,
    clients: Vec<(NodeId, VecDeque<Vec<Key>>)>,
    /// Aborts in a row of each client's current transaction.
    attempts: Vec<u32>,
    latencies: Vec<u64>,
    retries: u64,
}

type DriveRef = Rc<RefCell<Drive>>;

/// Drive every client's transactions closed-loop until all commit: begin,
/// optionally read the first key, write each key, commit. Returns the
/// begin → commit-ack latency of each transaction (simulated nanoseconds,
/// in commit order) and the number of retried attempts.
fn drive_txns(c: &mut Cluster, clients: Vec<TxnClient>, mode: TxnMode) -> (Vec<u64>, u64) {
    let total: usize = clients.iter().map(|(_, txns)| txns.len()).sum();
    let n = clients.len();
    let st = Rc::new(RefCell::new(Drive {
        mode,
        clients: clients.into_iter().map(|(g, t)| (g, t.into())).collect(),
        attempts: vec![0; n],
        latencies: Vec::new(),
        retries: 0,
    }));
    for ci in 0..n {
        next_txn(c, st.clone(), ci);
    }
    c.run_until_quiescent(SimTime(
        c.now().nanos() + SimDuration::from_secs(1_200).nanos(),
    ));
    let s = st.borrow();
    assert_eq!(s.latencies.len(), total, "probe txns went missing");
    (s.latencies.clone(), s.retries)
}

fn next_txn(c: &mut Cluster, st: DriveRef, ci: usize) {
    let (gateway, keys, read_first) = {
        let s = st.borrow();
        let (gateway, txns) = &s.clients[ci];
        match txns.front() {
            Some(keys) => (*gateway, keys.clone(), s.mode.read_first),
            None => return,
        }
    };
    let started = c.now();
    let h = c.txn_begin(gateway);
    if read_first {
        c.txn_get(
            h,
            keys[0].clone(),
            Box::new(move |c, res| match res {
                Ok(_) => put_chain(c, st, ci, h, keys.into_iter(), started),
                Err(e) => abort(c, st, ci, h, "get", e),
            }),
        );
    } else {
        put_chain(c, st, ci, h, keys.into_iter(), started);
    }
}

fn put_chain(
    c: &mut Cluster,
    st: DriveRef,
    ci: usize,
    h: TxnHandle,
    mut keys: std::vec::IntoIter<Key>,
    started: SimTime,
) {
    match keys.next() {
        Some(key) => c.txn_put(
            h,
            key,
            Some(Value::from("probe")),
            Box::new(move |c, res| match res {
                Ok(()) => put_chain(c, st, ci, h, keys, started),
                Err(e) => abort(c, st, ci, h, "put", e),
            }),
        ),
        None => c.txn_commit(
            h,
            Box::new(move |c, res| match res {
                Ok(_) => {
                    {
                        let mut s = st.borrow_mut();
                        s.latencies.push(c.now().nanos() - started.nanos());
                        s.clients[ci].1.pop_front();
                        s.attempts[ci] = 0;
                    }
                    next_txn(c, st, ci);
                }
                Err(e) => abort(c, st, ci, h, "commit", e),
            }),
        ),
    }
}

fn abort(c: &mut Cluster, st: DriveRef, ci: usize, h: TxnHandle, op: &str, e: KvError) {
    {
        let mut s = st.borrow_mut();
        assert!(s.mode.retry, "probe {op} failed: {e}");
        s.retries += 1;
        s.attempts[ci] += 1;
        assert!(
            s.attempts[ci] < 50,
            "probe txn stuck: 50 aborts in a row at gateway {}",
            s.clients[ci].0
        );
    }
    c.txn_rollback(h, Box::new(move |c, _| next_txn(c, st, ci)));
}
