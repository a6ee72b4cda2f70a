//! Shared utilities for the experiment harnesses.
//!
//! Each bench target (`cargo bench --bench fig3_regional_vs_global`, …)
//! regenerates one table or figure of the paper's evaluation section,
//! printing the same rows/series the paper reports. Simulated experiments
//! are deterministic: same seed, same numbers.
//!
//! Scale: the paper runs 2.5M requests per experiment on real clusters;
//! the default here is a few hundred ops per client scaled for
//! single-digit-minute wall time. Set `MR_OPS_PER_CLIENT` (and
//! `MR_TPCC_SECS`) to raise the sample counts toward paper scale.
//!
//! The CI probes live in [`probe`] and run through the `probe` binary.

mod json;
pub mod probe;

use mr_sim::SimRng;
use mr_workload::bulk;
use mr_workload::driver::{ClosedLoop, DriverStats, OpSource};
use mr_workload::ycsb::{self, YcsbTable};
use multiregion::{ClusterBuilder, RttMatrix, SimDuration, SimTime, SqlDb};

/// Ops each closed-loop client issues (paper: 50k).
pub fn ops_per_client() -> u64 {
    std::env::var("MR_OPS_PER_CLIENT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

/// Simulated seconds of TPC-C load (paper: 10-minute runs).
pub fn tpcc_secs() -> u64 {
    std::env::var("MR_TPCC_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// The five paper regions (Table 1).
pub fn paper_regions() -> Vec<String> {
    RttMatrix::paper_table1_regions()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Three-region deployment of §7.2 (us-east1, europe-west2,
/// asia-northeast1) with the corresponding Table 1 RTTs.
pub fn three_regions() -> (Vec<String>, RttMatrix) {
    let names = vec![
        "us-east1".to_string(),
        "europe-west2".to_string(),
        "asia-northeast1".to_string(),
    ];
    // Table 1: UE-EW 87, UE-AN 155, EW-AN 222.
    let rtt = RttMatrix::from_upper_millis(3, &[&[87, 155], &[222]]);
    (names, rtt)
}

/// Build the paper's five-region cluster with a given max clock offset.
pub fn five_region_db(max_offset_ms: u64, seed: u64) -> SqlDb {
    ClusterBuilder::new()
        .paper_regions()
        .max_clock_offset(SimDuration::from_millis(max_offset_ms))
        .seed(seed)
        .build()
}

/// Build the three-region cluster of §7.2.
pub fn three_region_db(seed: u64) -> SqlDb {
    let (names, rtt) = three_regions();
    let mut b = ClusterBuilder::new().rtt_matrix(rtt).seed(seed);
    for n in &names {
        b = b.region(n, 3);
    }
    b.build()
}

/// Create the YCSB database (if absent) + table and bulk-load `keys` rows.
pub fn setup_ycsb(
    db: &mut SqlDb,
    regions: &[String],
    table: &str,
    variant: YcsbTable,
    keys: u64,
    home: impl Fn(u64) -> String,
) {
    let sess = db.session_in_region(&regions[0], None);
    let mut create = format!("CREATE DATABASE ycsb PRIMARY REGION \"{}\"", regions[0]);
    if regions.len() > 1 {
        create.push_str(" REGIONS ");
        let rest: Vec<String> = regions[1..].iter().map(|r| format!("\"{r}\"")).collect();
        create.push_str(&rest.join(", "));
    }
    if db.catalog.borrow().db("ycsb").is_none() {
        db.exec_sync(&sess, &create).unwrap();
    }
    let sess = db.session_in_region(&regions[0], Some("ycsb"));
    db.exec_sync(&sess, &ycsb::schema(table, variant, regions))
        .unwrap();
    if variant == YcsbTable::ManualPartition {
        for stmt in ycsb::manual_partition_ddl(table, regions) {
            db.exec_sync(&sess, &stmt).unwrap();
        }
    }
    let rows = ycsb::dataset(variant, keys, home);
    bulk::load_rows(db, "ycsb", table, &rows);
    // Let replication and closed timestamps settle.
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(5).nanos()));
}

/// Register `clients_per_region` clients in every region with generators
/// produced by `mk(region_idx, client_idx_within_region, global_idx)`.
pub fn add_clients(
    db: &SqlDb,
    driver: &mut ClosedLoop,
    regions: &[String],
    db_name: &str,
    clients_per_region: usize,
    seed: &mut SimRng,
    mut mk: impl FnMut(usize, usize, usize) -> Box<dyn OpSource>,
) {
    let mut global = 0;
    for (ri, region) in regions.iter().enumerate() {
        for ci in 0..clients_per_region {
            let sess = db.session_in_region(region, Some(db_name));
            driver.add_client(sess, seed.fork(), mk(ri, ci, global));
            global += 1;
        }
    }
}

/// Run the driver to completion (clients stop via their own op budgets).
pub fn run_to_completion(db: &mut SqlDb, driver: &mut ClosedLoop) {
    let deadline = SimTime(db.cluster.now().nanos() + SimDuration::from_secs(1_000_000).nanos());
    driver.run(db, deadline);
}

/// Print a paper-style latency row.
pub fn print_row(name: &str, rec: &mut mr_sim::LatencyRecorder) {
    if rec.is_empty() {
        println!("{name:<42} (no samples)");
        return;
    }
    let s = rec.summary();
    println!("{name:<42} {}", s.row());
}

/// Print a latency CDF as `(percentile, ms)` pairs (Fig. 5 style).
pub fn print_cdf(name: &str, rec: &mut mr_sim::LatencyRecorder) {
    if rec.is_empty() {
        println!("{name:<28} (no samples)");
        return;
    }
    let quantiles = [
        0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 0.999, 1.0,
    ];
    let cdf = rec.cdf();
    print!("{name:<28}");
    for (q, ms) in cdf.series(&quantiles) {
        print!(" {:>5.1}%:{ms:>8.1}", q * 100.0);
    }
    println!();
}

/// Errors-to-stderr summary for a finished run.
pub fn report_errors(name: &str, stats: &DriverStats) {
    if stats.failed > 0 {
        eprintln!(
            "[{name}] {} / {} ops failed: {:?}",
            stats.failed,
            stats.failed + stats.completed,
            stats.errors
        );
    }
}
