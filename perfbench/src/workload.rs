//! The three benchmark workloads: cluster set-up, bulk load, and the
//! closed-loop clients that drive the unchanged `mr_workload` generators.
//!
//! Every client is a simulated session pinned to a gateway in its region
//! (§7.1.1 of the paper). Each generator is wrapped in a [`Client`] that
//! stops it once the timed phase's simulated span has passed and journals
//! what committed ops wrote, for the read-back gates. The wrapper never
//! alters an op: the program receives exactly the generated SQL.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use mr_sim::{SimDuration, SimRng, SimTime};
use mr_sql::exec::{Session, SqlDb};
use mr_workload::bulk;
use mr_workload::driver::{Op, OpSource};
use mr_workload::tpcc::{TpccConfig, TpccTerminal};
use mr_workload::ycsb::{self, KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;
use multiregion::{ClusterBuilder, RttMatrix};

/// Name of the YCSB table.
pub const YCSB_TABLE: &str = "usertable";

/// How long the cluster settles after the bulk load, before the first op.
const SETTLE: SimDuration = SimDuration::from_secs(5);

/// The paper's default `max_clock_offset` (§6.1).
const MAX_CLOCK_OFFSET: SimDuration = SimDuration::from_millis(250);

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A (50% reads, 50% UPSERTs), Zipf keys, REGIONAL BY TABLE.
    YcsbARegional,
    /// YCSB-B (95% reads, 5% UPSERTs), uniform keys, GLOBAL table.
    YcsbBGlobal,
    /// TPC-C-lite over REGIONAL BY ROW tables with a GLOBAL `item` table,
    /// every terminal in its home warehouse.
    TpccMultiregion,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::YcsbARegional,
        Workload::YcsbBGlobal,
        Workload::TpccMultiregion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbARegional => "ycsb-a-regional",
            Workload::YcsbBGlobal => "ycsb-b-global",
            Workload::TpccMultiregion => "tpcc-multiregion",
        }
    }

    /// The database the workload's tables live in.
    pub fn database(self) -> &'static str {
        match self {
            Workload::TpccMultiregion => "tpcc",
            Workload::YcsbARegional | Workload::YcsbBGlobal => "ycsb",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size of one run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Rows loaded into the YCSB table.
    pub rows: u64,
    /// Closed-loop YCSB clients in each region.
    pub clients_per_region: usize,
    /// TPC-C warehouses in each region, one terminal each.
    pub warehouses_per_region: u32,
    /// Simulated length of the timed phase. Clients issue no new op after
    /// it and finish the op in hand, so every transaction ends cleanly.
    pub span: SimDuration,
}

impl Size {
    /// The benchmark's size for a run of `seconds`. YCSB runs ten
    /// simulated seconds per second: at 30 seconds a span of 300 s, with
    /// five 60 s GC ticks. TPC-C runs seven: its host cost per transaction
    /// grows with the span, and at 30 seconds its 210 s still cover three
    /// GC ticks and about 1,200 Order-Status reads. Either way every read
    /// and write class has at least ten samples beyond its p99.
    pub fn full(workload: Workload, seconds: u64) -> Size {
        let span = |per_second: u64| SimDuration::from_secs(per_second * seconds);
        match workload {
            Workload::YcsbARegional => Size {
                rows: 100_000,
                clients_per_region: 10,
                warehouses_per_region: 0,
                span: span(10),
            },
            Workload::YcsbBGlobal => Size {
                rows: 10_000,
                clients_per_region: 10,
                warehouses_per_region: 0,
                span: span(10),
            },
            Workload::TpccMultiregion => Size {
                rows: 0,
                clients_per_region: 0,
                warehouses_per_region: 20,
                span: span(7),
            },
        }
    }

    /// A size small enough for the benchmark's own tests. TPC-C's span
    /// covers one 60 s GC tick; its terminals think for seconds between
    /// transactions, so that costs little.
    pub fn tiny(workload: Workload) -> Size {
        match workload {
            Workload::YcsbARegional | Workload::YcsbBGlobal => Size {
                rows: 500,
                clients_per_region: 1,
                warehouses_per_region: 0,
                span: SimDuration::from_secs(10),
            },
            Workload::TpccMultiregion => Size {
                rows: 0,
                clients_per_region: 0,
                warehouses_per_region: 1,
                span: SimDuration::from_secs(65),
            },
        }
    }
}

/// The seeds of one run: `--seed` gives the generator seed and
/// `--cluster-seed` the cluster seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Seeds the cluster: clock skews and network jitter.
    pub cluster: u64,
    /// Seeds the clients' generators: keys, mixes and think times.
    pub generator: u64,
}

impl Seeds {
    /// The cluster seed used unless one is given: one fixed cluster, as a
    /// benchmark runs on one fixed testbed, while `--seed` varies the
    /// inputs.
    pub const DEFAULT_CLUSTER: u64 = 1;
}

/// Latency class of an op label: YCSB reads and TPC-C Order-Status are
/// reads; YCSB UPSERTs, New-Order and Payment are writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Read,
    Write,
}

impl Class {
    pub fn of(label: &str) -> Class {
        if label.starts_with("read") || label == "order-status" {
            Class::Read
        } else {
            Class::Write
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
        }
    }
}

/// What committed ops wrote, kept for the read-back gates.
#[derive(Default, Debug)]
pub struct Journal {
    /// YCSB: every value a committed UPSERT wrote, per key.
    pub upserts: HashMap<i64, Vec<String>>,
    /// TPC-C: per `(warehouse, district)`, the committed New-Orders and
    /// the highest order id among them.
    pub new_orders: HashMap<(i64, i64), (u64, i64)>,
}

/// The effect of one op, applied to the journal if the op commits.
#[derive(Debug, PartialEq, Eq)]
enum Effect {
    None,
    Upsert { key: i64, value: String },
    NewOrder { w: i64, d: i64, o_id: i64 },
}

/// The integer right after `marker` in `sql`.
fn int_after(sql: &str, marker: &str) -> Option<i64> {
    let rest = &sql[sql.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Read an op's effect off the generated SQL: the YCSB generator writes
/// `UPSERT INTO t (k, v) VALUES (<k>, '<v>')`, and the TPC-C New-Order
/// script sets `d_next_o_id = <o_id + 1> WHERE d_w_id = <w> AND d_id = <d>`.
fn effect_of(op: &Op) -> Effect {
    for sql in &op.stmts {
        if sql.starts_with("UPSERT INTO") {
            let key = int_after(sql, "VALUES (").expect("UPSERT names its key");
            let value = sql
                .rsplit('\'')
                .nth(1)
                .expect("UPSERT writes a quoted value")
                .to_string();
            return Effect::Upsert { key, value };
        }
        if sql.starts_with("UPDATE district SET d_next_o_id") {
            return Effect::NewOrder {
                w: int_after(sql, "d_w_id = ").expect("New-Order names its warehouse"),
                d: int_after(sql, "d_id = ").expect("New-Order names its district"),
                o_id: int_after(sql, "d_next_o_id = ").expect("New-Order sets the next id") - 1,
            };
        }
    }
    Effect::None
}

impl Journal {
    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::None => {}
            Effect::Upsert { key, value } => self.upserts.entry(key).or_default().push(value),
            Effect::NewOrder { w, d, o_id } => {
                let e = self.new_orders.entry((w, d)).or_insert((0, 0));
                e.0 += 1;
                e.1 = e.1.max(o_id);
            }
        }
    }
}

/// A generator wrapped for the benchmark: retired once the timed phase's
/// span has passed, with committed effects journaled.
struct Client {
    gen: Box<dyn OpSource>,
    stop: Rc<Cell<bool>>,
    journal: Rc<RefCell<Journal>>,
    pending: Effect,
}

impl OpSource for Client {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        if self.stop.get() {
            return None;
        }
        let op = self.gen.next_op(rng)?;
        self.pending = effect_of(&op);
        Some(op)
    }

    fn on_result(&mut self, label: &str, failed: bool) {
        self.gen.on_result(label, failed);
        let effect = std::mem::replace(&mut self.pending, Effect::None);
        if !failed {
            self.journal.borrow_mut().apply(effect);
        }
    }
}

/// One client ready to be registered with a closed loop.
pub struct ClientSpec {
    pub session: Session,
    pub rng: SimRng,
    pub source: Box<dyn OpSource>,
}

/// A loaded, settled cluster with its clients, ready for the timed phase.
pub struct Prepared {
    pub workload: Workload,
    pub db: SqlDb,
    pub journal: Rc<RefCell<Journal>>,
    /// Rows bulk-loaded across all tables.
    pub loaded_rows: u64,
    /// Scale of the TPC-C schema (TPC-C workload).
    pub tpcc: Option<TpccConfig>,
    span: SimDuration,
    stop: Rc<Cell<bool>>,
    clients: Vec<ClientSpec>,
}

impl Prepared {
    /// Arm the end of the timed phase and hand out the clients. The end is
    /// a cluster event at `now + span`, so it falls at the same simulated
    /// instant whichever loop drives the clients.
    pub fn begin(&mut self) -> Vec<ClientSpec> {
        let stop = Rc::clone(&self.stop);
        self.db
            .cluster
            .schedule(self.span, Box::new(move |_| stop.set(true)));
        std::mem::take(&mut self.clients)
    }

    /// A session in the primary region, for the read-back gates.
    pub fn admin_session(&self) -> Session {
        let primary = RttMatrix::paper_table1_regions()[0];
        self.db
            .session_in_region(primary, Some(self.workload.database()))
    }
}

fn regions() -> Vec<String> {
    RttMatrix::paper_table1_regions()
        .iter()
        .map(|r| r.to_string())
        .collect()
}

fn create_database(db: &mut SqlDb, name: &str, regions: &[String]) {
    let sess = db.session_in_region(&regions[0], None);
    let rest: Vec<String> = regions[1..].iter().map(|r| format!("\"{r}\"")).collect();
    let sql = format!(
        "CREATE DATABASE {name} PRIMARY REGION \"{}\" REGIONS {}",
        regions[0],
        rest.join(", ")
    );
    db.exec_sync(&sess, &sql).expect("CREATE DATABASE succeeds");
}

fn settle(db: &mut SqlDb) {
    let until = SimTime(db.cluster.now().nanos() + SETTLE.nanos());
    db.cluster.run_until(until);
}

/// Build the paper's five-region cluster, create and bulk-load the
/// workload's schema, let replication and closed timestamps settle, and
/// create the clients. This is the benchmark's set-up phase.
pub fn prepare(workload: Workload, size: Size, seeds: Seeds) -> Prepared {
    let mut db = ClusterBuilder::new()
        .paper_regions()
        .max_clock_offset(MAX_CLOCK_OFFSET)
        .seed(seeds.cluster)
        .build();
    let regions = regions();
    let stop = Rc::new(Cell::new(false));
    let journal = Rc::new(RefCell::new(Journal::default()));
    let mut rng = SimRng::seed_from_u64(seeds.generator);
    let mut clients = Vec::new();
    // Clients are spread round-robin over their region's nodes.
    let mut wrap = |db: &SqlDb, region: &str, rng: &mut SimRng, gen: Box<dyn OpSource>| {
        let topo = db.cluster.topology();
        let nodes = topo.nodes_in_region(topo.region_by_name(region).expect("paper region"));
        let gateway = nodes[clients.len() % nodes.len()];
        clients.push(ClientSpec {
            session: db.session(gateway, Some(workload.database())),
            rng: rng.fork(),
            source: Box::new(Client {
                gen,
                stop: Rc::clone(&stop),
                journal: Rc::clone(&journal),
                pending: Effect::None,
            }),
        });
    };
    let mut prepared_tpcc = None;
    let loaded_rows = match workload {
        Workload::YcsbARegional | Workload::YcsbBGlobal => {
            let (variant, read_fraction, keys) = if workload == Workload::YcsbARegional {
                let zipf = KeyChooser::Zipf(Zipf::ycsb(size.rows));
                (YcsbTable::RegionalByTable, 0.5, zipf)
            } else {
                let uniform = KeyChooser::Uniform { n: size.rows };
                (YcsbTable::Global, 0.95, uniform)
            };
            create_database(&mut db, "ycsb", &regions);
            let sess = db.session_in_region(&regions[0], Some("ycsb"));
            db.exec_sync(&sess, &ycsb::schema(YCSB_TABLE, variant, &regions))
                .expect("CREATE TABLE succeeds");
            let rows = ycsb::dataset(variant, size.rows, |_| unreachable!("unpartitioned"));
            bulk::load_rows(&mut db, "ycsb", YCSB_TABLE, &rows);
            settle(&mut db);
            for (ri, region) in regions.iter().enumerate() {
                for _ in 0..size.clients_per_region {
                    let gen = YcsbGen {
                        table: YCSB_TABLE.into(),
                        variant,
                        read_fraction,
                        insert_workload: false,
                        keys: keys.clone(),
                        read_mode: ReadMode::Fresh,
                        regions: regions.clone(),
                        region_idx: ri,
                        remaining: None,
                        next_insert: 0,
                        insert_stride: 1,
                        nregions: regions.len() as u64,
                        label_prefix: String::new(),
                    };
                    wrap(&db, region, &mut rng, Box::new(gen));
                }
            }
            size.rows
        }
        Workload::TpccMultiregion => {
            let mut cfg = TpccConfig::new(regions.clone());
            cfg.warehouses_per_region = size.warehouses_per_region;
            // Every terminal stays in its home warehouse: remote stock and
            // payments are the one source of conflicts between terminals,
            // and a conflict fails the transaction (see README.md).
            cfg.remote_item_prob = 0.0;
            cfg.remote_payment_prob = 0.0;
            create_database(&mut db, "tpcc", &regions);
            let sess = db.session_in_region(&regions[0], Some("tpcc"));
            // Voters only in each partition's home region (no non-voters
            // elsewhere), one of the two placements of the paper's Fig. 6.
            db.exec_sync(&sess, "ALTER DATABASE tpcc PLACEMENT RESTRICTED")
                .expect("PLACEMENT RESTRICTED succeeds");
            for ddl in cfg.schema() {
                db.exec_sync(&sess, &ddl).expect("TPC-C DDL succeeds");
            }
            let mut loaded = 0;
            for (table, rows) in cfg.datasets() {
                bulk::load_rows(&mut db, "tpcc", table, &rows);
                loaded += rows.len() as u64;
            }
            settle(&mut db);
            for w in 0..cfg.total_warehouses() {
                let region = &cfg.regions[cfg.region_of_warehouse(w)];
                wrap(
                    &db,
                    region,
                    &mut rng,
                    Box::new(TpccTerminal::new(cfg.clone(), w)),
                );
            }
            prepared_tpcc = Some(cfg);
            loaded
        }
    };
    Prepared {
        workload,
        db,
        journal,
        loaded_rows,
        tpcc: prepared_tpcc,
        span: size.span,
        stop,
        clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ycsb_op(label: &str, read_fraction: f64) -> Op {
        let mut gen = YcsbGen {
            table: YCSB_TABLE.into(),
            variant: YcsbTable::Global,
            read_fraction,
            insert_workload: false,
            keys: KeyChooser::Uniform { n: 1000 },
            read_mode: ReadMode::Fresh,
            regions: regions(),
            region_idx: 0,
            remaining: None,
            next_insert: 0,
            insert_stride: 1,
            nregions: 5,
            label_prefix: String::new(),
        };
        let op = gen.next_op(&mut SimRng::seed_from_u64(1)).unwrap();
        assert!(op.label.starts_with(label), "{}", op.label);
        op
    }

    #[test]
    fn upsert_effect_is_read_off_the_generated_sql() {
        let op = ycsb_op("write", 0.0);
        let Effect::Upsert { key, value } = effect_of(&op) else {
            panic!("not an upsert: {:?}", op.stmts)
        };
        assert!(op.stmts[0].contains(&format!("VALUES ({key}, '{value}')")));
        assert_eq!(effect_of(&ycsb_op("read", 1.0)), Effect::None);
    }

    #[test]
    fn new_order_effect_names_its_district_and_order() {
        let mut cfg = TpccConfig::new(regions());
        cfg.warehouses_per_region = 2;
        let mut term = TpccTerminal::new(cfg, 7);
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = 0;
        for _ in 0..50 {
            let op = term.next_op(&mut rng).unwrap();
            match effect_of(&op) {
                Effect::NewOrder { w, d, o_id } => {
                    assert!(op.label.starts_with("new-order"));
                    assert_eq!(w, 7);
                    assert!((0..2).contains(&d));
                    assert!(o_id >= 1);
                    seen += 1;
                }
                Effect::None => assert!(!op.label.starts_with("new-order")),
                Effect::Upsert { .. } => panic!("TPC-C issues no UPSERT"),
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn labels_map_to_latency_classes() {
        for read in ["read-local", "read-remote", "order-status"] {
            assert_eq!(Class::of(read), Class::Read);
        }
        for write in [
            "write-local",
            "new-order",
            "new-order-remote",
            "payment",
            "payment-remote",
        ] {
            assert_eq!(Class::of(write), Class::Write);
        }
    }
}
