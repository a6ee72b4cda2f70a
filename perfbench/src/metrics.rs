//! The benchmark's metrics and its result line.
//!
//! End-to-end metrics come from an untraced run, per-layer metrics from a
//! traced run of the same seed. "Per txn" means per committed client op:
//! one YCSB statement or one TPC-C transaction script.

use std::time::Duration;

use mr_kv::metrics::MetricsView;
use mr_sql::exec::SqlDb;

use crate::run::{RunOutcome, StepKind};
use crate::workload::Class;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Storage-engine gauges, summed over replicas. A scrape refreshes them.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageGauges {
    pub flushes: i64,
    pub compactions: i64,
    pub gc_reclaimed: i64,
    pub wal_bytes: i64,
    pub versions: i64,
    pub bloom_probes: i64,
    pub bloom_skips: i64,
}

/// Program counters read at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub kv: MetricsView,
    pub storage: StorageGauges,
    pub instruments: usize,
}

impl Counters {
    pub fn read(db: &SqlDb) -> Counters {
        let r = &db.cluster.obs.registry;
        let g = |name: &'static str| r.gauge(name, &[]).get();
        Counters {
            kv: db.cluster.metrics(),
            storage: StorageGauges {
                flushes: g("storage.flushes"),
                compactions: g("storage.compactions"),
                gc_reclaimed: g("storage.gc_reclaimed"),
                wal_bytes: g("storage.wal_bytes"),
                versions: g("storage.memtable_versions") + g("storage.sst_versions"),
                bloom_probes: g("storage.bloom_probes"),
                bloom_skips: g("storage.bloom_skips"),
            },
            instruments: r.instrument_count(),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The end-to-end metrics of an untraced run, or the latency class that
/// had too few samples to report.
pub fn end_to_end(run: &RunOutcome, setup_s: f64, peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    let completed = run.stats.completed as f64;
    let latency = |class: Class| {
        run.latency(class)
            .ok_or_else(|| format!("too few {} samples for a tail percentile", class.name()))
    };
    let read = latency(Class::Read)?;
    let write = latency(Class::Write)?;
    let ms = |d: mr_sim::SimDuration| d.as_millis_f64();
    Ok(vec![
        metric(
            "txn_per_wall_s",
            "ops/s",
            completed / run.wall.as_secs_f64(),
        ),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("read_p50_ms", "ms", ms(read.p50)),
        metric("read_p99_ms", "ms", ms(read.tail)),
        metric("write_p50_ms", "ms", ms(write.p50)),
        metric("write_p99_ms", "ms", ms(write.tail)),
        metric("sim_ops_per_s", "ops/s", run.stats.throughput()),
        // Add-one smoothing keeps a run without failures above zero.
        metric(
            "failed_op_frac",
            "ratio",
            (run.stats.failed + 1) as f64 / (run.attempted() + 1) as f64,
        ),
    ])
}

/// The per-layer metrics of a traced run. `untraced_wall` is the wall time
/// of the untraced run of the same seed; `loaded_rows` the bulk-loaded rows.
pub fn per_layer(run: &RunOutcome, untraced_wall: Duration, loaded_rows: u64) -> Vec<Metric> {
    let (before, after) = (&run.before, &run.after);
    let layers = run.layers.as_ref().expect("a traced run has layer timing");
    let wall = run.wall.as_secs_f64();
    let txns = run.stats.completed as f64;
    let (k0, k1) = (&before.kv, &after.kv);
    let dk = |f: fn(&MetricsView) -> u64| (f(k1) - f(k0)) as f64;
    let (s0, s1) = (&before.storage, &after.storage);
    let ds = |f: fn(&StorageGauges) -> i64| (f(s1) - f(s0)) as f64;
    let steps = layers.step_total();

    let mut out = vec![
        metric(
            "sim.events_per_txn",
            "count",
            ratio(run.fingerprint.events as f64, txns),
        ),
        metric(
            "sim.step_busy_frac",
            "ratio",
            steps.time.as_secs_f64() / wall,
        ),
    ];
    let step_metrics: [(StepKind, [&'static str; 3], &'static str, f64); 7] = [
        (
            StepKind::Raft,
            [
                "raft.step.count",
                "raft.step.busy_s",
                "raft.step.us_per_event",
            ],
            "us",
            1e6,
        ),
        (
            StepKind::Rpc,
            [
                "kv.step.rpc.count",
                "kv.step.rpc.busy_s",
                "kv.step.rpc.us_per_event",
            ],
            "us",
            1e6,
        ),
        (
            StepKind::Tick,
            [
                "kv.step.tick.count",
                "kv.step.tick.busy_s",
                "kv.step.tick.us_per_event",
            ],
            "us",
            1e6,
        ),
        (
            StepKind::Side,
            ["kv.step.side.count", "kv.step.side.busy_s", ""],
            "",
            0.0,
        ),
        (
            StepKind::Wake,
            ["kv.step.wake.count", "kv.step.wake.busy_s", ""],
            "",
            0.0,
        ),
        (
            StepKind::Gc,
            [
                "storage.gc_tick.count",
                "storage.gc_tick.busy_s",
                "storage.gc_tick.ms_per_tick",
            ],
            "ms",
            1e3,
        ),
        (
            StepKind::Scrape,
            [
                "obs.scrape.count",
                "obs.scrape.busy_s",
                "obs.scrape.ms_per_scrape",
            ],
            "ms",
            1e3,
        ),
    ];
    for (kind, [count, busy, per], per_unit, scale) in step_metrics {
        let b = layers.step(kind);
        let busy_s = b.time.as_secs_f64();
        out.push(metric(count, "count", b.count as f64));
        out.push(metric(busy, "s", busy_s));
        if !per.is_empty() {
            out.push(metric(per, per_unit, ratio(busy_s * scale, b.count as f64)));
        }
    }
    let exec_s = layers.exec.time.as_secs_f64();
    let calls = layers.exec.count as f64;
    out.extend([
        metric("sql.exec.calls", "count", calls),
        metric("sql.exec.busy_s", "s", exec_s),
        metric("sql.exec.us_per_call", "us", ratio(exec_s * 1e6, calls)),
        metric("sql.stmts_per_txn", "count", ratio(calls, txns)),
        metric("kv.rpcs_per_txn", "count", ratio(dk(|m| m.rpcs_sent), txns)),
        metric(
            "kv.requests.parked_per_txn",
            "count",
            ratio(dk(|m| m.parked_requests), txns),
        ),
        metric(
            "kv.txn.restarts_per_txn",
            "count",
            ratio(
                dk(|m| m.txn_restarts) + dk(|m| m.uncertainty_restarts),
                txns,
            ),
        ),
        metric(
            "kv.txn.commit_frac",
            "ratio",
            ratio(
                dk(|m| m.txn_commits),
                dk(|m| m.txn_commits) + dk(|m| m.txn_aborts) + dk(|m| m.txn_restarts),
            ),
        ),
        metric(
            "kv.parallel_commit.restage_frac",
            "ratio",
            ratio(
                dk(|m| m.parallel_commit_restages),
                dk(|m| m.parallel_commit_acks) + dk(|m| m.parallel_commit_restages),
            ),
        ),
        metric(
            "raft.entries_per_txn",
            "count",
            ratio(dk(|m| m.entries_proposed), txns),
        ),
        metric(
            "raft.batch_occupancy",
            "count",
            ratio(dk(|m| m.proposals_batched), dk(|m| m.entries_proposed)),
        ),
        metric("raft.heartbeats_sent", "count", dk(|m| m.heartbeats_sent)),
        metric("storage.flushes", "count", ds(|s| s.flushes)),
        metric("storage.compactions", "count", ds(|s| s.compactions)),
        metric("storage.gc_reclaimed", "count", ds(|s| s.gc_reclaimed)),
        metric(
            "storage.versions_per_row",
            "count",
            ratio(s1.versions as f64, loaded_rows as f64),
        ),
        metric("storage.wal_bytes", "bytes", s1.wal_bytes as f64),
        metric(
            "storage.bloom_skip_frac",
            "ratio",
            ratio(ds(|s| s.bloom_skips), ds(|s| s.bloom_probes)),
        ),
        metric(
            "obs.registry_instruments",
            "count",
            after.instruments as f64,
        ),
        metric(
            "driver.busy_s",
            "s",
            wall - steps.time.as_secs_f64() - exec_s,
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            wall / untraced_wall.as_secs_f64() - 1.0,
        ),
    ]);
    out
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            10,
            0,
            &[metric("a", "ms", 1.25), metric("b", "s", 3.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
