//! Chaos probe: fixed-seed nemesis schedules through the full chaos
//! harness (seeded faults + workload + offline history checker), with
//! every online invariant monitor escalated to a panic. Reports committed
//! ops/sec, recovery-time p99 (latency of operations invoked while a
//! disruption was active), and steady-state p99 per scenario.

use mr_chaos::{
    run_chaos, ChaosConfig, CheckerConfig, FaultSchedule, IncidentBundle, ScheduleBounds,
};
use mr_sim::SimDuration;

use super::ProbeReport;
use crate::json::Json;

/// Scenario seeds: small primes spread across the schedule space. Each
/// derives a different disrupt/heal sequence (crashes, partitions,
/// isolations, clock skews) from `FaultSchedule::random`.
pub const CHAOS_SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// One seeded fault schedule's outcome.
#[derive(Clone)]
pub struct ChaosScenario {
    pub seed: u64,
    pub ops_ok: usize,
    pub ops_failed: usize,
    /// Committed client operations per simulated second.
    pub ops_per_sec: f64,
    pub recovery_p99_ms: f64,
    pub steady_p99_ms: f64,
    pub checker_violations: usize,
    /// The rendered checker report (seed and schedule step named) and the
    /// incident bundle of a run the checker flagged.
    pub incident: Option<(String, Option<IncidentBundle>)>,
}

/// Every scenario, in seed order.
#[derive(Clone)]
pub struct ChaosReport {
    pub scenarios: Vec<ChaosScenario>,
}

fn ms(d: SimDuration) -> f64 {
    d.nanos() as f64 / 1e6
}

/// Run one chaos scenario per seed. Deterministic for fixed seeds.
pub fn chaos_probe(seeds: &[u64]) -> ChaosReport {
    let scenarios = seeds
        .iter()
        .map(|&seed| {
            let schedule = FaultSchedule::random(seed, &ScheduleBounds::default());
            let cfg = ChaosConfig {
                seed,
                run_for: schedule.span() + SimDuration::from_secs(8),
                ..ChaosConfig::default()
            };
            let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
            ChaosScenario {
                seed,
                ops_ok: outcome.ops_ok,
                ops_failed: outcome.ops_failed,
                ops_per_sec: outcome.ops_per_sec,
                recovery_p99_ms: ms(outcome.recovery_p99),
                steady_p99_ms: ms(outcome.steady_p99),
                checker_violations: outcome.report.violations.len(),
                incident: (!outcome.passed()).then(|| (outcome.render(), outcome.bundle.clone())),
            }
        })
        .collect();
    ChaosReport { scenarios }
}

impl ProbeReport for ChaosReport {
    fn json(&self) -> String {
        let rows = self.scenarios.iter().map(|s| {
            Json::obj([
                ("seed", s.seed.into()),
                ("ops_ok", s.ops_ok.into()),
                ("ops_failed", s.ops_failed.into()),
                ("ops_per_sec", Json::fixed(s.ops_per_sec, 2)),
                ("recovery_p99_ms", Json::fixed(s.recovery_p99_ms, 3)),
                ("steady_p99_ms", Json::fixed(s.steady_p99_ms, 3)),
                ("checker_violations", s.checker_violations.into()),
            ])
        });
        Json::doc([("scenarios", Json::arr(rows))])
    }

    /// Fails on any serializability, recency or availability violation
    /// the offline checker finds, naming the seed and schedule step; the
    /// run's incident bundle is written to `incident_seed<N>/`.
    fn gate(&self) -> Vec<String> {
        self.scenarios
            .iter()
            .filter(|s| s.checker_violations > 0)
            .map(|s| {
                let rendered = s.incident.as_ref().map_or("", |(r, _)| r.as_str());
                format!(
                    "seed {}: {} checker violations (incident bundle: incident_seed{}/)\n{rendered}",
                    s.seed, s.checker_violations, s.seed
                )
            })
            .collect()
    }

    fn files(&self) -> Vec<(String, String)> {
        let mut files = Vec::new();
        for s in &self.scenarios {
            if let Some((_, Some(bundle))) = &s.incident {
                for (name, contents) in bundle.files() {
                    files.push((format!("incident_seed{}/{name}", s.seed), contents.clone()));
                }
            }
        }
        files
    }
}
