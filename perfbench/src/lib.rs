//! Host-speed benchmark of the multi-region simulator.
//!
//! One run sets up one workload on the paper's five-region cluster, drives
//! it through a closed loop in simulated time, checks the outcome, and
//! reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (traced, which also repeats the untraced run to prove the two
//! reach the same simulated state). See `README.md` beside this crate.

pub mod gates;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod workload;

use std::time::{Duration, Instant};

use metrics::Metric;
use run::{run_traced, run_untraced, RunOutcome};
use workload::{prepare, Class, Prepared, Seeds, Size, Workload};

/// An untraced run times its set-up in two windows: before the timed
/// phase and again after the gates. Each window sets up at least
/// `MIN_SETUPS` times and until its set-ups add up to `SETUP_BUDGET` (at
/// most `MAX_SETUPS`). `setup_s` is the median of both windows, so a
/// fast set-up is sampled often enough, and at two moments of the run, to
/// ride out a burst of host noise.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Everything one benchmark invocation found.
pub struct Report {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// Correctness failures; empty when every gate passed.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn describe(run: &RunOutcome, name: &str, lines: &mut Vec<String>) {
    let f = &run.fingerprint;
    lines.push(format!(
        "{name} run: {} committed, {} failed, {} events, sim {} -> {}, wall {:.3} s",
        f.committed,
        f.failed,
        f.events,
        run.start,
        f.end,
        run.wall.as_secs_f64()
    ));
    for class in [Class::Read, Class::Write] {
        lines.push(match run.latency(class) {
            Some(t) => format!(
                "  {} latency: n={} p50={:.3} ms p{:.2}={:.3} ms ({} samples beyond)",
                class.name(),
                t.n,
                t.p50.as_millis_f64(),
                t.tail_pct(),
                t.tail.as_millis_f64(),
                t.beyond()
            ),
            None => format!("  {} latency: too few samples", class.name()),
        });
    }
}

/// One window of set-ups (dropping each cluster before the next is
/// built): appends their times to `times` and returns the last cluster.
fn time_setups(workload: Workload, size: Size, seeds: Seeds, times: &mut Vec<f64>) -> Prepared {
    let mut total = Duration::ZERO;
    let mut prepared = None;
    for n in 0..MAX_SETUPS {
        if n >= MIN_SETUPS && total >= SETUP_BUDGET {
            break;
        }
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(workload, size, seeds));
        let took = t.elapsed();
        total += took;
        times.push(took.as_secs_f64());
    }
    prepared.expect("at least one set-up")
}

/// Run one benchmark invocation.
pub fn bench(workload: Workload, size: Size, seeds: Seeds, traced: bool) -> Report {
    let mut lines = vec![format!(
        "workload {} | cluster seed {} | generator seed {} | {:?}",
        workload.name(),
        seeds.cluster,
        seeds.generator,
        size
    )];
    let mut failures = Vec::new();
    let mut setup_times = Vec::new();
    let mut p = if traced {
        prepare(workload, size, seeds)
    } else {
        time_setups(workload, size, seeds, &mut setup_times)
    };
    let untraced = run_untraced(&mut p);
    let peak_rss_mb = metrics::peak_rss_mb();
    describe(&untraced, "untraced", &mut lines);
    failures.extend(gates::check(&mut p));
    let loaded_rows = p.loaded_rows;
    drop(p);

    let metrics = if traced {
        let mut p = prepare(workload, size, seeds);
        let run = run_traced(&mut p);
        describe(&run, "traced", &mut lines);
        if run.fingerprint != untraced.fingerprint {
            failures.push(format!(
                "traced run diverged from the untraced run:\n  untraced {:?}\n  traced   {:?}",
                untraced.fingerprint, run.fingerprint
            ));
        }
        metrics::per_layer(&run, untraced.wall, loaded_rows)
    } else {
        drop(time_setups(workload, size, seeds, &mut setup_times));
        let setup_s = stats::median(&setup_times);
        match metrics::end_to_end(&untraced, setup_s, peak_rss_mb) {
            Ok(m) => m,
            Err(e) => {
                failures.push(e);
                Vec::new()
            }
        }
    };
    Report {
        lines,
        failures,
        attempted: untraced.attempted(),
        failed: untraced.stats.failed,
        metrics,
    }
}
