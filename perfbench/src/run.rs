//! The timed phase, run two ways.
//!
//! [`run_untraced`] hands the clients to the program's own
//! [`ClosedLoop`]; it gives the end-to-end metrics. [`run_traced`] drives
//! the same clients through [`TracedLoop`], a copy of `ClosedLoop::run`'s
//! semantics that times every call into the program's two entry points:
//! `SqlDb::exec` (the synchronous front half of a statement: parse, plan,
//! first KV dispatch) and `Cluster::step` (one calendar event). Each step
//! is attributed to a layer by which `kv.events.by_kind` counter it moved;
//! a step that moved none is an observability scrape if the scrape series
//! grew and a `GcTick` otherwise (the benchmark sets no `rpc_timeout` and
//! leaves the range lifecycle off, so no other event kind is silent).
//!
//! The two runs must end in the same simulated state: [`Fingerprint`]
//! captures it, and the benchmark fails a traced run whose fingerprint
//! differs from the untraced one.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use mr_obs::registry::Counter;
use mr_obs::scrape::Scraper;
use mr_sim::{SimDuration, SimRng, SimTime};
use mr_sql::exec::{Session, SqlDb};
use mr_workload::driver::{ClosedLoop, DriverStats, Op, OpSource};

use crate::metrics::Counters;
use crate::stats::{tail, LatencyTail, TAIL_PCT};
use crate::workload::{Class, ClientSpec, Prepared};

/// No simulated deadline: clients retire when the timed phase's span ends.
const NEVER: SimTime = SimTime(u64::MAX);

/// The layer a `Cluster::step` call is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Client RPC delivery and evaluation (`kv.events.by_kind{kind=rpc}`).
    Rpc,
    /// Raft messages and group-commit flushes, with the synchronous apply
    /// into storage.
    Raft,
    /// The periodic Raft tick over every replica.
    Tick,
    /// Closed-timestamp side transport.
    Side,
    /// Scheduled callbacks: commit wait, think time, retries.
    Wake,
    /// Periodic observability scrape.
    Scrape,
    /// Periodic MVCC garbage collection.
    Gc,
}

impl StepKind {
    pub const ALL: [StepKind; 7] = [
        StepKind::Rpc,
        StepKind::Raft,
        StepKind::Tick,
        StepKind::Side,
        StepKind::Wake,
        StepKind::Scrape,
        StepKind::Gc,
    ];

    /// `kind` labels of the `kv.events.by_kind` counters, in the order of
    /// the first five variants.
    const COUNTED: [&'static str; 5] = ["rpc", "raft", "tick", "side", "wake"];
}

/// Counter readings taken around one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Marks {
    /// `kv.events.by_kind`, in [`StepKind::COUNTED`] order.
    pub by_kind: [u64; 5],
    /// Scrapes taken so far, including any the series has evicted.
    pub scrapes: u64,
}

/// Classify one step from the counter readings before and after it.
pub fn classify(before: &Marks, after: &Marks) -> StepKind {
    match (0..5).find(|&i| after.by_kind[i] != before.by_kind[i]) {
        Some(i) => StepKind::ALL[i],
        None if after.scrapes != before.scrapes => StepKind::Scrape,
        None => StepKind::Gc,
    }
}

/// Reads the counters [`classify`] needs.
pub struct StepProbe {
    by_kind: [Counter; 5],
    scraper: Scraper,
}

impl StepProbe {
    pub fn new(db: &SqlDb) -> StepProbe {
        let registry = &db.cluster.obs.registry;
        StepProbe {
            by_kind: StepKind::COUNTED
                .map(|kind| registry.counter("kv.events.by_kind", &[("kind", kind)])),
            scraper: db.cluster.obs.scraper.clone(),
        }
    }

    pub fn read(&self) -> Marks {
        Marks {
            by_kind: [0, 1, 2, 3, 4].map(|i| self.by_kind[i].get()),
            scrapes: self.scraper.len() as u64 + self.scraper.dropped(),
        }
    }
}

/// Calls into one layer and the wall time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub count: u64,
    pub time: Duration,
}

impl Busy {
    fn add(&mut self, d: Duration) {
        self.count += 1;
        self.time += d;
    }
}

/// Per-layer timing of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Cluster::step` calls, indexed like [`StepKind::ALL`].
    pub steps: [Busy; 7],
    /// `SqlDb::exec` calls.
    pub exec: Busy,
}

impl Layers {
    pub fn step(&self, kind: StepKind) -> Busy {
        self.steps[kind as usize]
    }

    pub fn step_total(&self) -> Busy {
        self.steps.iter().fold(Busy::default(), |acc, b| Busy {
            count: acc.count + b.count,
            time: acc.time + b.time,
        })
    }
}

/// The simulated outcome of a run. Two runs of one seed must agree on it
/// exactly, whatever drove them and however slow the host was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub committed: u64,
    pub failed: u64,
    /// `kv.events.processed` over the timed phase.
    pub events: u64,
    pub end: SimTime,
    /// Committed ops per label.
    pub per_label: BTreeMap<String, usize>,
    /// Latency p50 and tail of each class.
    pub latency: BTreeMap<Class, Option<LatencyTail>>,
}

/// What a timed phase produced.
pub struct RunOutcome {
    pub stats: DriverStats,
    /// Host wall time of the timed phase.
    pub wall: Duration,
    pub start: SimTime,
    pub fingerprint: Fingerprint,
    /// Per-layer timing (traced runs only).
    pub layers: Option<Layers>,
    /// Program counters at the start and end of the timed phase.
    pub before: Counters,
    pub after: Counters,
}

impl RunOutcome {
    pub fn attempted(&self) -> u64 {
        self.stats.completed + self.stats.failed
    }

    /// Latency of one class: p50 plus the highest percentile up to p99
    /// with at least ten samples beyond it.
    pub fn latency(&self, class: Class) -> Option<LatencyTail> {
        self.fingerprint.latency[&class]
    }
}

/// Time `drive` as the timed phase, reading the program's counters
/// before and after it (after one scrape, which refreshes the storage
/// gauges); neither read is timed.
fn timed(
    p: &mut Prepared,
    drive: impl FnOnce(&mut SqlDb) -> (DriverStats, Option<Layers>),
) -> RunOutcome {
    let before = Counters::read(&p.db);
    let start = p.db.cluster.now();
    let t = Instant::now();
    let (stats, layers) = drive(&mut p.db);
    let wall = t.elapsed();
    let per_label = stats
        .latency
        .iter()
        .map(|(label, rec)| (label.clone(), rec.len()))
        .collect();
    let latency = [Class::Read, Class::Write]
        .into_iter()
        .map(|class| {
            let mut rec = stats.merged(|label| Class::of(label) == class);
            (class, tail(&mut rec, TAIL_PCT))
        })
        .collect();
    let fingerprint = Fingerprint {
        committed: stats.completed,
        failed: stats.failed,
        events: p.db.cluster.metrics().events_processed - before.kv.events_processed,
        end: p.db.cluster.now(),
        per_label,
        latency,
    };
    p.db.cluster.scrape_now();
    RunOutcome {
        stats,
        wall,
        start,
        fingerprint,
        layers,
        before,
        after: Counters::read(&p.db),
    }
}

/// Run the timed phase on the program's own closed-loop driver.
pub fn run_untraced(p: &mut Prepared) -> RunOutcome {
    let mut driver = ClosedLoop::new();
    for c in p.begin() {
        driver.add_client(c.session, c.rng, c.source);
    }
    timed(p, move |db| {
        driver.run(db, NEVER);
        (driver.stats, None)
    })
}

/// Run the timed phase on [`TracedLoop`], timing every call into the
/// program.
pub fn run_traced(p: &mut Prepared) -> RunOutcome {
    let mut driver = TracedLoop::new(StepProbe::new(&p.db));
    for c in p.begin() {
        driver.add_client(c);
    }
    timed(p, move |db| {
        driver.run(db, NEVER);
        (driver.stats, Some(driver.layers))
    })
}

struct ClientState {
    sess: Session,
    source: Box<dyn OpSource>,
    rng: SimRng,
    retired: bool,
    script: VecDeque<String>,
    script_label: String,
    script_start: SimTime,
    pending_after_think: Option<Op>,
}

#[allow(clippy::enum_variant_names)]
enum Signal {
    StmtDone { client: usize, failed: bool },
    ThinkDone { client: usize },
    RollbackDone { client: usize },
}

/// A closed loop with `mr_workload::ClosedLoop`'s exact semantics — the
/// same call order into the program, so the same simulation — whose calls
/// into `SqlDb::exec` and `Cluster::step` are timed.
pub struct TracedLoop {
    clients: Vec<ClientState>,
    signals: Rc<RefCell<Vec<Signal>>>,
    pub stats: DriverStats,
    in_flight: usize,
    probe: StepProbe,
    pub layers: Layers,
}

impl TracedLoop {
    pub fn new(probe: StepProbe) -> TracedLoop {
        TracedLoop {
            clients: Vec::new(),
            signals: Rc::new(RefCell::new(Vec::new())),
            stats: DriverStats::default(),
            in_flight: 0,
            probe,
            layers: Layers::default(),
        }
    }

    pub fn add_client(&mut self, c: ClientSpec) {
        self.clients.push(ClientState {
            sess: c.session,
            source: c.source,
            rng: c.rng,
            retired: false,
            script: VecDeque::new(),
            script_label: String::new(),
            script_start: SimTime::ZERO,
            pending_after_think: None,
        });
    }

    /// `SqlDb::exec`, timed; the result arrives later as a signal.
    fn exec(&mut self, db: &mut SqlDb, client: usize, sql: &str, rollback: bool) {
        let sess = self.clients[client].sess.clone();
        let signals = Rc::clone(&self.signals);
        self.in_flight += 1;
        let t = Instant::now();
        db.exec(
            &sess,
            sql,
            Box::new(move |_c, res| {
                signals.borrow_mut().push(if rollback {
                    Signal::RollbackDone { client }
                } else {
                    Signal::StmtDone {
                        client,
                        failed: res.is_err(),
                    }
                });
            }),
        );
        self.layers.exec.add(t.elapsed());
    }

    /// `Cluster::step`, timed and attributed.
    fn step(&mut self, db: &mut SqlDb) -> bool {
        let before = self.probe.read();
        let t = Instant::now();
        let more = db.cluster.step();
        let took = t.elapsed();
        if more {
            let kind = classify(&before, &self.probe.read());
            self.layers.steps[kind as usize].add(took);
        }
        more
    }

    fn next_op(&mut self, db: &mut SqlDb, client: usize) {
        let c = &mut self.clients[client];
        if c.retired {
            return;
        }
        let Some(op) = c.source.next_op(&mut c.rng) else {
            c.retired = true;
            return;
        };
        if op.think == SimDuration::ZERO {
            self.begin_op(db, client, op);
        } else {
            self.in_flight += 1;
            let signals = Rc::clone(&self.signals);
            db.cluster.schedule(
                op.think,
                Box::new(move |_c| {
                    signals.borrow_mut().push(Signal::ThinkDone { client });
                }),
            );
            self.clients[client].pending_after_think = Some(Op {
                think: SimDuration::ZERO,
                ..op
            });
        }
    }

    fn begin_op(&mut self, db: &mut SqlDb, client: usize, op: Op) {
        let c = &mut self.clients[client];
        c.script = op.stmts.into();
        c.script_label = op.label;
        c.script_start = db.cluster.now();
        self.advance_script(db, client);
    }

    fn advance_script(&mut self, db: &mut SqlDb, client: usize) {
        let Some(sql) = self.clients[client].script.pop_front() else {
            return;
        };
        self.exec(db, client, &sql, false);
    }

    fn finish_op(&mut self, db: &mut SqlDb, client: usize, failed: bool, deadline: SimTime) {
        let label = std::mem::take(&mut self.clients[client].script_label);
        let latency = db.cluster.now() - self.clients[client].script_start;
        if failed {
            self.stats.failed += 1;
            *self.stats.errors.entry(label.clone()).or_default() += 1;
        } else {
            self.stats.completed += 1;
            self.stats.recorder(&label).record(latency);
        }
        self.clients[client].source.on_result(&label, failed);
        self.clients[client].script.clear();
        if db.cluster.now() < deadline {
            self.next_op(db, client);
        }
    }

    /// Run until `deadline` or until every client retires.
    pub fn run(&mut self, db: &mut SqlDb, deadline: SimTime) {
        let started = db.cluster.now();
        for i in 0..self.clients.len() {
            self.next_op(db, i);
        }
        loop {
            let batch: Vec<Signal> = self.signals.borrow_mut().drain(..).collect();
            for sig in batch {
                match sig {
                    Signal::ThinkDone { client } => {
                        self.in_flight -= 1;
                        if let Some(op) = self.clients[client].pending_after_think.take() {
                            if db.cluster.now() < deadline {
                                self.begin_op(db, client, op);
                            }
                        }
                    }
                    Signal::StmtDone { client, failed } => {
                        self.in_flight -= 1;
                        if failed {
                            if self.clients[client].sess.in_txn() {
                                self.exec(db, client, "ROLLBACK", true);
                            } else {
                                self.finish_op(db, client, true, deadline);
                            }
                        } else if self.clients[client].script.is_empty() {
                            self.finish_op(db, client, false, deadline);
                        } else {
                            self.advance_script(db, client);
                        }
                    }
                    Signal::RollbackDone { client } => {
                        self.in_flight -= 1;
                        self.finish_op(db, client, true, deadline);
                    }
                }
            }
            if db.cluster.now() >= deadline || self.in_flight == 0 {
                break;
            }
            if !self.step(db) {
                break;
            }
        }
        self.stats.elapsed = db.cluster.now() - started;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marks(by_kind: [u64; 5], scrapes: u64) -> Marks {
        Marks { by_kind, scrapes }
    }

    #[test]
    fn a_moved_counter_names_the_kind() {
        let before = marks([5, 5, 5, 5, 5], 3);
        for (i, kind) in StepKind::ALL[..5].iter().enumerate() {
            let mut after = before;
            after.by_kind[i] += 1;
            assert_eq!(classify(&before, &after), *kind);
        }
    }

    #[test]
    fn silent_steps_are_scrapes_or_gc() {
        let before = marks([1, 2, 3, 4, 5], 9);
        assert_eq!(
            classify(&before, &marks([1, 2, 3, 4, 5], 10)),
            StepKind::Scrape
        );
        assert_eq!(classify(&before, &before), StepKind::Gc);
    }
}
