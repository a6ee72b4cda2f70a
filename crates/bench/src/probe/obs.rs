//! Observability probe: per-range load telemetry, windowed metrics
//! history, and transaction latency attribution.
//!
//! The skew phase drives an open-loop read storm at one range (plus a
//! 10x-slower write trickle at a second) so the EWMA load recorder has a
//! known ground truth, and the same window is replayed against the tsdb
//! at both resolutions. The attribution phase then runs closed-loop
//! multi-range write transactions and sums how much of their latency the
//! named components explain.

use mr_kv::cluster::ClusterConfig;
use mr_kv::zone::SurvivalGoal;
use mr_obs::Resolution;
use mr_proto::{Key, Value};
use mr_sim::{NodeId, SimDuration, SimTime};

use super::{drive_txns, home_range, run_for, span, table1_cluster, ProbeReport, TxnMode};
use crate::json::Json;

/// Open-loop read rate the skew phase drives at the hot range (ops/sec).
pub const OBS_READ_HZ: u64 = 50;
/// Open-loop write rate the skew phase drives at the warm range (ops/sec).
pub const OBS_WRITE_HZ: u64 = 5;
/// Registry instruments allowed after the run: per-range load must live
/// in the `LoadRecorder`, never as per-range registry instruments.
pub const METRIC_BUDGET: usize = 128;

/// Everything the obs probe measures, plus the deterministic exports the
/// golden test pins byte-for-byte.
#[derive(Clone)]
pub struct ObsProbeReport {
    /// Range id of the deliberately skewed (hot) range.
    pub hot_range: u64,
    /// Range id of the background (warm) write range.
    pub warm_range: u64,
    /// The rate the skew phase drove at the hot range, milli-qps.
    pub driven_qps_milli: u64,
    /// `LoadRecorder::hot_ranges` snapshot taken right as the skew ends.
    pub hot: Vec<mr_obs::RangeLoadSnapshot>,
    /// `kv.txn.commits` growth expected over the steady window, milli/sec.
    pub expected_commit_rate_milli: i64,
    /// The same rate as the tsdb reports it at each resolution.
    pub commit_rate_fine_milli: i64,
    pub commit_rate_coarse_milli: i64,
    /// Retained in-window samples at each resolution.
    pub fine_samples: usize,
    pub coarse_samples: usize,
    /// Latency-attribution sums over every retained transaction record.
    pub attr_txns: usize,
    pub attr_total_nanos: u64,
    /// Nanos charged to a named component (rpc, replication, lock-wait,
    /// commit-wait, retry) — the rest is `other`.
    pub attr_named_nanos: u64,
    pub attr_other_nanos: u64,
    /// Registry cardinality after the run (gated by [`METRIC_BUDGET`]).
    pub instrument_count: usize,
    /// Deterministic exports embedded into `BENCH_obs.json`.
    pub hot_ranges_json: String,
    pub slow_txns_json: String,
    pub metrics_history_json: String,
}

impl ObsProbeReport {
    /// Share of end-to-end transaction latency the named attribution
    /// components explain (the gate wants ≥ 0.95).
    pub fn named_fraction(&self) -> f64 {
        if self.attr_total_nanos == 0 {
            return 0.0;
        }
        self.attr_named_nanos as f64 / self.attr_total_nanos as f64
    }
}

/// Drive the load-telemetry pipeline end to end: an open-loop read skew
/// at one range (plus a 10x-slower write trickle at a second), then a
/// closed-loop batch of multi-range write transactions for attribution.
/// Deterministic for a fixed seed.
pub fn obs_probe(seed: u64, skew_secs: u64, write_txns: usize) -> ObsProbeReport {
    assert!(skew_secs >= 10, "skew phase too short to settle the EWMA");
    let mut c = table1_cluster(ClusterConfig {
        seed,
        ..ClusterConfig::default()
    });
    let hot_range = home_range(&mut c, span("zs/", "zs0"), SurvivalGoal::Zone);
    let warm_range = home_range(&mut c, span("za/", "za0"), SurvivalGoal::Zone);
    c.run_until(SimTime(SimDuration::from_secs(3).nanos()));

    // Skew phase: point reads at `zs/hot` every 1/OBS_READ_HZ seconds of
    // sim time, with a write to the warm range every OBS_WRITE_HZ-th tick.
    // Each op is its own (read-only or single-write) transaction so the
    // commit counter grows at exactly OBS_READ_HZ + OBS_WRITE_HZ per
    // second over the steady window.
    let gw = NodeId(0);
    let t0 = c.now();
    let ticks = skew_secs * OBS_READ_HZ;
    for i in 0..ticks {
        c.run_until(SimTime(t0.nanos() + i * 1_000_000_000 / OBS_READ_HZ));
        let h = c.txn_begin(gw);
        c.txn_get(
            h,
            Key::from("zs/hot"),
            Box::new(move |c, res| {
                res.unwrap_or_else(|e| panic!("probe read failed: {e}"));
                c.txn_commit(
                    h,
                    Box::new(|_, res| {
                        res.unwrap_or_else(|e| panic!("probe ro commit failed: {e}"));
                    }),
                );
            }),
        );
        if i % (OBS_READ_HZ / OBS_WRITE_HZ) == 0 {
            let h = c.txn_begin(gw);
            let key = Key::from(format!("za/w{i}").as_str());
            c.txn_put(
                h,
                key,
                Some(Value::from("obs-probe")),
                Box::new(move |c, res| {
                    res.unwrap_or_else(|e| panic!("probe write failed: {e}"));
                    c.txn_commit(
                        h,
                        Box::new(|_, res| {
                            res.unwrap_or_else(|e| panic!("probe rw commit failed: {e}"));
                        }),
                    );
                }),
            );
        }
    }
    let t_skew_end = SimTime(t0.nanos() + skew_secs * 1_000_000_000);
    c.run_until(t_skew_end);
    c.run_until_quiescent(SimTime(
        c.now().nanos() + SimDuration::from_secs(60).nanos(),
    ));

    // Snapshot the heat ranking right as the skew ends, before idling
    // decays it away.
    let hot = c.obs.load.hot_ranges(c.now());

    // Counter rates over the interior of the skew window (2s trimmed from
    // each edge so ramp-up scrapes don't bias the delta), at both
    // resolutions.
    let wfrom = SimTime(t0.nanos() + 2_000_000_000);
    let wto = SimTime(t_skew_end.nanos() - 2_000_000_000);
    let tsdb = &c.obs.tsdb;
    let rate = |res| tsdb.rate_milli("kv.txn.commits", res, wfrom, wto);
    let samples = |res| tsdb.window("kv.txn.commits", res, wfrom, wto).len();
    let commit_rate_fine_milli = rate(Resolution::Fine).unwrap_or(0);
    let commit_rate_coarse_milli = rate(Resolution::Coarse).unwrap_or(0);
    let fine_samples = samples(Resolution::Fine);
    let coarse_samples = samples(Resolution::Coarse);

    // Attribution phase: closed-loop multi-range write transactions (the
    // kind whose latency the paper dissects — intent replication plus the
    // parallel-commit record).
    let shapes = (0..write_txns)
        .map(|i| {
            vec![
                Key::from(format!("zs/b{i}").as_str()),
                Key::from(format!("za/b{i}").as_str()),
            ]
        })
        .collect();
    let mode = TxnMode {
        read_first: false,
        retry: false,
    };
    drive_txns(&mut c, vec![(gw, shapes)], mode);
    // Drain straggling async intent resolutions before reading the log.
    run_for(&mut c, SimDuration::from_secs(2));

    let (mut total, mut named) = (0u64, 0u64);
    let records = c.attr_log.records();
    for r in &records {
        total += r.breakdown.total_nanos;
        named += r.breakdown.comp_nanos.iter().sum::<u64>();
    }
    c.scrape_now();

    let now = c.now();
    ObsProbeReport {
        hot_range: hot_range.0,
        warm_range: warm_range.0,
        driven_qps_milli: OBS_READ_HZ * 1000,
        expected_commit_rate_milli: ((OBS_READ_HZ + OBS_WRITE_HZ) * 1000) as i64,
        commit_rate_fine_milli,
        commit_rate_coarse_milli,
        fine_samples,
        coarse_samples,
        attr_txns: records.len(),
        attr_total_nanos: total,
        attr_named_nanos: named,
        attr_other_nanos: total - named,
        instrument_count: c.obs.registry.instrument_count(),
        hot_ranges_json: c.obs.load.export_json(now, 10),
        slow_txns_json: c.attr_log.export_json(20),
        metrics_history_json: c.obs.tsdb.export_json(&[
            "kv.txn.commits",
            "kv.attr.slow_txn_records",
            "kv.load.tracked_ranges",
        ]),
        hot,
    }
}

impl ProbeReport for ObsProbeReport {
    fn json(&self) -> String {
        let hot_rows = self.hot.iter().take(5).map(|s| {
            Json::obj([
                ("range", s.range.into()),
                ("qps_milli", s.qps_milli.into()),
                ("read_qps_milli", s.read_qps_milli.into()),
                ("write_qps_milli", s.write_qps_milli.into()),
                ("write_bytes_per_sec", s.write_bytes_per_sec.into()),
                ("mean_latency_nanos", s.mean_latency_nanos.into()),
            ])
        });
        Json::doc([
            (
                "skew",
                Json::obj([
                    ("hot_range", self.hot_range.into()),
                    ("warm_range", self.warm_range.into()),
                    ("driven_qps_milli", self.driven_qps_milli.into()),
                    ("hot_ranges", Json::arr(hot_rows)),
                ]),
            ),
            (
                "rates",
                Json::obj([
                    ("expected_milli", self.expected_commit_rate_milli.into()),
                    ("fine_milli", self.commit_rate_fine_milli.into()),
                    ("coarse_milli", self.commit_rate_coarse_milli.into()),
                    ("fine_samples", self.fine_samples.into()),
                    ("coarse_samples", self.coarse_samples.into()),
                ]),
            ),
            (
                "attribution",
                Json::obj([
                    ("txns", self.attr_txns.into()),
                    ("total_nanos", self.attr_total_nanos.into()),
                    ("named_nanos", self.attr_named_nanos.into()),
                    ("other_nanos", self.attr_other_nanos.into()),
                    ("named_fraction", Json::fixed(self.named_fraction(), 4)),
                ]),
            ),
            ("instrument_count", self.instrument_count.into()),
            ("slow_txns", Json::raw(&self.slow_txns_json)),
            ("hot_ranges_export", Json::raw(&self.hot_ranges_json)),
            ("metrics_history", Json::raw(&self.metrics_history_json)),
        ])
    }

    /// Fails if the hot-range ranking or its decayed QPS drifts >10% from
    /// the driven rate, if the windowed tsdb mis-reports the commit rate
    /// at either resolution, if the named latency attribution components
    /// stop explaining >=95% of end-to-end transaction latency, or if
    /// registry cardinality exceeds [`METRIC_BUDGET`].
    fn gate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        // The deliberately skewed range must rank first, with a decayed
        // QPS within 10% of the rate the open loop actually drove.
        match self.hot.first() {
            None => failures.push("hot_ranges ranking is empty".to_string()),
            Some(top) => {
                if top.range != self.hot_range {
                    failures.push(format!(
                        "hottest range is r{} — expected the skewed r{}",
                        top.range, self.hot_range
                    ));
                }
                let driven = self.driven_qps_milli as f64;
                if (top.qps_milli as f64 - driven).abs() > 0.10 * driven {
                    failures.push(format!(
                        "hot-range decayed QPS {}m is not within 10% of the driven {}m",
                        top.qps_milli, self.driven_qps_milli
                    ));
                }
            }
        }
        // The windowed store must report the driven commit rate at both
        // resolutions.
        for (res, rate, n) in [
            ("fine", self.commit_rate_fine_milli, self.fine_samples),
            ("coarse", self.commit_rate_coarse_milli, self.coarse_samples),
        ] {
            if n < 2 {
                failures.push(format!("{res} window holds only {n} samples"));
            }
            let expected = self.expected_commit_rate_milli as f64;
            if (rate as f64 - expected).abs() > 0.10 * expected {
                failures.push(format!(
                    "{res} commit rate {rate}m/s is not within 10% of the driven {expected}m/s"
                ));
            }
        }
        // Named attribution components must explain almost all of every
        // transaction's end-to-end latency; a growing `other` bucket means
        // an instrumentation hole on the client critical path.
        if self.attr_txns == 0 {
            failures.push("attribution log is empty".to_string());
        }
        if self.named_fraction() < 0.95 {
            failures.push(format!(
                "named components explain only {:.1}% of txn latency (need >= 95%)",
                100.0 * self.named_fraction()
            ));
        }
        if self.instrument_count > METRIC_BUDGET {
            failures.push(format!(
                "registry holds {} instruments — exceeds the budget of {METRIC_BUDGET}",
                self.instrument_count
            ));
        }
        failures
    }
}
