//! Perf probe: YCSB over a REGIONAL and a GLOBAL table on the paper's five
//! regions, with every online invariant monitor escalated to a panic.
//! Latency classes are read from the cluster's own `kv.op.latency`
//! histograms (not harness-side timers): regional reads (lag policy),
//! global reads (lead policy), and global-transaction commits (commit
//! wait included), plus conformance counters.

use mr_obs::Histogram;
use mr_sim::SimRng;
use mr_workload::driver::ClosedLoop;
use mr_workload::ycsb::{KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;
use multiregion::SqlDb;

use super::ProbeReport;
use crate::json::Json;
use crate::{add_clients, five_region_db, paper_regions, run_to_completion, setup_ycsb};

const REGIONAL_KEYS: u64 = 100_000;
const GLOBAL_KEYS: u64 = 10_000;

/// Sample count and quantiles of one merged latency histogram, in
/// simulated nanoseconds.
#[derive(Clone)]
pub struct HistSummary {
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl HistSummary {
    fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            p50_ns: h.quantile(0.5),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("p50_ns", self.p50_ns.into()),
            ("p99_ns", self.p99_ns.into()),
            ("max_ns", self.max_ns.into()),
        ])
    }
}

#[derive(Clone)]
pub struct PerfReport {
    pub regional_reads: HistSummary,
    pub global_reads: HistSummary,
    pub global_txn_commits: HistSummary,
    /// Ranges whose placement does not conform to their zone config.
    pub replication_violations: usize,
    /// Online invariant-monitor violations recorded during the run.
    pub monitor_violations: usize,
    /// The run's `perf_probe_*` observability exports as `(file name,
    /// contents)`.
    pub exports: Vec<(String, String)>,
}

/// A finished run's observability exports: `perf_probe_metrics.json` /
/// `.csv` (registry dump), `perf_probe_scrapes.csv` (time series),
/// `perf_probe_events.json` (cluster event log),
/// `perf_probe_replication_report.json` (conformance report), and
/// `perf_probe_trace.json` (Chrome trace, only when spans were recorded).
fn obs_exports(db: &SqlDb) -> Vec<(String, String)> {
    let obs = &db.cluster.obs;
    let mut files = vec![
        ("metrics.json", obs.registry.dump_json()),
        ("metrics.csv", obs.registry.dump_csv()),
        ("scrapes.csv", obs.scraper.export_csv()),
        ("events.json", db.cluster.events.export_json()),
        (
            "replication_report.json",
            db.cluster.replication_report().export_json(),
        ),
    ];
    if !obs.tracer.is_empty() {
        files.push(("trace.json", obs.tracer.export_chrome_json()));
    }
    files
        .into_iter()
        .map(|(name, contents)| (format!("perf_probe_{name}"), contents))
        .collect()
}

/// One closed-loop YCSB-A phase (50% reads) over `table`.
fn run_phase(
    db: &mut SqlDb,
    table: &str,
    variant: YcsbTable,
    keys: u64,
    clients_per_region: usize,
    ops_per_client: u64,
    rng: &mut SimRng,
) {
    let regions = paper_regions();
    let mut driver = ClosedLoop::new();
    add_clients(
        db,
        &mut driver,
        &regions,
        "ycsb",
        clients_per_region,
        rng,
        |ri, _, _| {
            Box::new(YcsbGen {
                table: table.into(),
                variant,
                read_fraction: 0.5,
                insert_workload: false,
                keys: KeyChooser::Zipf(Zipf::ycsb(keys)),
                read_mode: ReadMode::Fresh,
                regions: regions.clone(),
                region_idx: ri,
                remaining: Some(ops_per_client),
                next_insert: 0,
                insert_stride: 1,
                nregions: regions.len() as u64,
                label_prefix: String::new(),
            })
        },
    );
    run_to_completion(db, &mut driver);
}

/// Run YCSB-A with 10 clients per region and `ops` ops each against a
/// REGIONAL table, then a fifth of that against a GLOBAL table.
/// Deterministic for a fixed seed.
pub fn perf_probe(seed: u64, ops: u64) -> PerfReport {
    let mut db = five_region_db(250, seed);
    let regions = paper_regions();
    for (table, variant, keys) in [
        ("t", YcsbTable::RegionalByTable, REGIONAL_KEYS),
        ("g", YcsbTable::Global, GLOBAL_KEYS),
    ] {
        setup_ycsb(&mut db, &regions, table, variant, keys, |_| unreachable!());
    }

    let mut rng = SimRng::seed_from_u64(seed + 1);
    // Phase 1: REGIONAL table (lag-policy reads and commits).
    let regional = YcsbTable::RegionalByTable;
    run_phase(&mut db, "t", regional, REGIONAL_KEYS, 10, ops, &mut rng);
    // Phase 2: GLOBAL table (lead-policy reads; commits pay commit wait).
    let global = YcsbTable::Global;
    run_phase(&mut db, "g", global, GLOBAL_KEYS, 5, ops / 5, &mut rng);

    let reg = &db.cluster.obs.registry;
    let latency = |op, policy| {
        HistSummary::of(
            &reg.histogram_merged_where("kv.op.latency", &[("op", op), ("policy", policy)]),
        )
    };
    PerfReport {
        regional_reads: latency("kv.get", "lag"),
        global_reads: latency("kv.get", "lead"),
        global_txn_commits: latency("kv.commit", "lead"),
        replication_violations: db.cluster.replication_report().violations(),
        monitor_violations: db.cluster.obs.monitors.violation_count(),
        exports: obs_exports(&db),
    }
}

impl ProbeReport for PerfReport {
    fn json(&self) -> String {
        Json::doc([
            ("regional_reads", self.regional_reads.json()),
            ("global_reads", self.global_reads.json()),
            ("global_txn_commits", self.global_txn_commits.json()),
            ("replication_violations", self.replication_violations.into()),
            ("monitor_violations", self.monitor_violations.into()),
        ])
    }

    /// Fails if any range ends the run with a non-conforming placement or
    /// an online monitor recorded a violation. (Strict monitors already
    /// panic on a closed-timestamp regression, an over-fresh follower
    /// read, or a short commit wait.)
    fn gate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.replication_violations > 0 {
            failures.push(format!(
                "{} ranges do not conform to their zone configs",
                self.replication_violations
            ));
        }
        if self.monitor_violations > 0 {
            failures.push(format!(
                "{} online invariant-monitor violations",
                self.monitor_violations
            ));
        }
        failures
    }

    fn files(&self) -> Vec<(String, String)> {
        self.exports.clone()
    }
}
