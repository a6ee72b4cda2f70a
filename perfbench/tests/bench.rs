//! Tests of the benchmark's own code: step attribution, and a tiny run of
//! every workload through all correctness gates.

use mr_sim::{SimDuration, SimTime};
use perfbench::run::{run_traced, StepKind};
use perfbench::workload::{prepare, Seeds, Size, Workload};

const SEEDS: Seeds = Seeds {
    cluster: Seeds::DEFAULT_CLUSTER,
    generator: 7,
};

/// Periodic events of `interval` (first at `interval` after cluster start)
/// that fire in `(start, end]`.
fn ticks_between(start: SimTime, end: SimTime, interval: SimDuration) -> u64 {
    end.nanos() / interval.nanos() - start.nanos() / interval.nanos()
}

#[test]
fn every_step_is_attributed_exactly_once() {
    let w = Workload::TpccMultiregion;
    let mut p = prepare(w, Size::tiny(w), SEEDS);
    let gc_interval = p.db.cluster.cfg.gc_interval;
    let scrape_interval =
        p.db.cluster
            .cfg
            .obs_scrape_interval
            .expect("scrapes are on");
    let run = run_traced(&mut p);
    let layers = run.layers.as_ref().unwrap();
    let (start, end) = (run.start, run.fingerprint.end);

    // Each step moved exactly one attribution bucket, so the buckets sum
    // to the events the cluster counted.
    assert_eq!(layers.step_total().count, run.fingerprint.events);
    // Counter-based kinds agree with the program's own per-kind counters.
    let (b, a) = (&run.before.kv, &run.after.kv);
    assert_eq!(layers.step(StepKind::Rpc).count, a.ev_rpc - b.ev_rpc);
    assert_eq!(layers.step(StepKind::Raft).count, a.ev_raft - b.ev_raft);
    assert_eq!(layers.step(StepKind::Tick).count, a.ev_tick - b.ev_tick);
    assert_eq!(layers.step(StepKind::Side).count, a.ev_side - b.ev_side);
    assert_eq!(layers.step(StepKind::Wake).count, a.ev_wake - b.ev_wake);
    // The silent kinds fire on their schedules.
    let gc = ticks_between(start, end, gc_interval);
    assert!(gc >= 1, "the span must cover a GC tick");
    assert_eq!(layers.step(StepKind::Gc).count, gc);
    assert_eq!(
        layers.step(StepKind::Scrape).count,
        ticks_between(start, end, scrape_interval)
    );
    assert!(layers.exec.count > 0);
}

fn smoke(w: Workload, traced: bool) {
    let report = perfbench::bench(w, Size::tiny(w), SEEDS, traced);
    assert!(
        report.failures.is_empty(),
        "{}: {:?}\n{}",
        w.name(),
        report.failures,
        report.lines.join("\n")
    );
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{}", report.lines.join("\n"));
    assert!(!report.metrics.is_empty());
}

#[test]
fn ycsb_a_smoke_passes_every_gate() {
    smoke(Workload::YcsbARegional, true);
}

#[test]
fn ycsb_b_smoke_passes_every_gate() {
    smoke(Workload::YcsbBGlobal, false);
}

#[test]
fn tpcc_smoke_passes_every_gate() {
    smoke(Workload::TpccMultiregion, true);
}

#[test]
fn gates_catch_a_write_the_clients_never_made() {
    let w = Workload::YcsbBGlobal;
    let mut p = prepare(w, Size::tiny(w), SEEDS);
    perfbench::run::run_untraced(&mut p);
    assert!(perfbench::gates::check(&mut p).is_empty());
    let sess = p.admin_session();
    p.db.exec_sync(&sess, "UPSERT INTO usertable (k, v) VALUES (3, 'bogus')")
        .unwrap();
    let failures = perfbench::gates::check(&mut p);
    assert!(failures.iter().any(|f| f.contains("k=3")), "{failures:?}");
}

#[test]
fn gates_catch_an_unbalanced_warehouse() {
    let w = Workload::TpccMultiregion;
    let mut p = prepare(w, Size::tiny(w), SEEDS);
    perfbench::run::run_untraced(&mut p);
    assert!(perfbench::gates::check(&mut p).is_empty());
    let sess = p.admin_session();
    p.db.exec_sync(
        &sess,
        "UPDATE warehouse SET w_ytd = w_ytd + 1 WHERE w_id = 2",
    )
    .unwrap();
    let failures = perfbench::gates::check(&mut p);
    assert!(
        failures.iter().any(|f| f.contains("warehouse 2")),
        "{failures:?}"
    );
}
