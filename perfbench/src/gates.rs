//! Correctness gates, checked after the timed phase and outside its timing.
//!
//! * Replication conformance and the online invariant monitors report no
//!   violation.
//! * YCSB read-back: every loaded row is present; a key no committed
//!   UPSERT touched holds its loaded value, and any other key holds a
//!   value a committed UPSERT wrote to it.
//! * TPC-C read-back (summed here, as the SQL subset has no aggregates):
//!   per warehouse `w_ytd = Σ d_ytd = Σ h_amount`; per district the
//!   `orders` and `new_order` row counts equal the committed New-Orders and
//!   `d_next_o_id − 1` is the highest committed order id, which together
//!   give `orders = d_next_o_id − 1 = new_order` when none failed.

use std::collections::HashMap;

use mr_sql::types::Datum;
use mr_workload::tpcc::TpccConfig;

use crate::workload::{Prepared, Workload, YCSB_TABLE};

/// Rows the read-back fetches per scan statement.
const SCAN_CHUNK: i64 = 10_000;

fn int(d: &Datum) -> i64 {
    match d {
        Datum::Int(v) => *v,
        other => panic!("expected INT, got {other:?}"),
    }
}

fn float(d: &Datum) -> f64 {
    match d {
        Datum::Float(v) => *v,
        Datum::Int(v) => *v as f64,
        other => panic!("expected FLOAT, got {other:?}"),
    }
}

fn string(d: &Datum) -> &str {
    match d {
        Datum::String(s) => s,
        other => panic!("expected STRING, got {other:?}"),
    }
}

/// Run one read-back query to completion.
fn query(p: &mut Prepared, sql: &str) -> Result<Vec<Vec<Datum>>, String> {
    let sess = p.admin_session();
    p.db.exec_sync(&sess, sql)
        .map(|res| res.rows().to_vec())
        .map_err(|e| format!("read-back query `{sql}` failed: {e}"))
}

/// Check every gate; returns the failures found (empty when all pass).
pub fn check(p: &mut Prepared) -> Vec<String> {
    let mut failures = Vec::new();
    let replication = p.db.cluster.replication_report().violations();
    if replication != 0 {
        failures.push(format!("replication report: {replication} violations"));
    }
    let monitors = p.db.cluster.obs.monitors.violation_count();
    if monitors != 0 {
        failures.push(format!("invariant monitors: {monitors} violations"));
    }
    let read_back = match p.workload {
        Workload::YcsbARegional | Workload::YcsbBGlobal => check_ycsb(p),
        Workload::TpccMultiregion => check_tpcc(p),
    };
    if let Err(e) = read_back {
        failures.push(e);
    }
    failures
}

fn check_ycsb(p: &mut Prepared) -> Result<(), String> {
    let rows = p.loaded_rows as i64;
    let mut values: HashMap<i64, String> = HashMap::new();
    for lo in (0..rows).step_by(SCAN_CHUNK as usize) {
        let sql = format!(
            "SELECT k, v FROM {YCSB_TABLE} WHERE k >= {lo} AND k < {}",
            lo + SCAN_CHUNK
        );
        for row in query(p, &sql)? {
            values.insert(int(&row[0]), string(&row[1]).to_string());
        }
    }
    let journal = p.journal.borrow();
    for k in 0..rows {
        let Some(v) = values.get(&k) else {
            return Err(format!("ycsb: loaded row k={k} is missing"));
        };
        let ok = match journal.upserts.get(&k) {
            None => *v == format!("value-{k}"),
            Some(written) => written.contains(v),
        };
        if !ok {
            return Err(format!(
                "ycsb: k={k} holds {v:?}, neither its loaded value nor a committed write ({:?})",
                journal.upserts.get(&k)
            ));
        }
    }
    if values.len() as i64 != rows {
        return Err(format!(
            "ycsb: {} rows read back, {rows} loaded",
            values.len()
        ));
    }
    Ok(())
}

fn check_tpcc(p: &mut Prepared) -> Result<(), String> {
    let cfg: TpccConfig = p.tpcc.clone().expect("TPC-C run carries its config");
    let mut w_ytd: HashMap<i64, f64> = HashMap::new();
    for row in query(p, "SELECT w_id, w_ytd FROM warehouse")? {
        w_ytd.insert(int(&row[0]), float(&row[1]));
    }
    let mut d_ytd_sum: HashMap<i64, f64> = HashMap::new();
    let mut next_o_id: HashMap<(i64, i64), i64> = HashMap::new();
    for row in query(p, "SELECT d_w_id, d_id, d_next_o_id, d_ytd FROM district")? {
        let (w, d) = (int(&row[0]), int(&row[1]));
        next_o_id.insert((w, d), int(&row[2]));
        *d_ytd_sum.entry(w).or_default() += float(&row[3]);
    }
    let mut h_sum: HashMap<i64, f64> = HashMap::new();
    for row in query(p, "SELECT h_w_id, h_amount FROM history")? {
        *h_sum.entry(int(&row[0])).or_default() += float(&row[1]);
    }
    let mut orders: HashMap<(i64, i64), u64> = HashMap::new();
    for row in query(p, "SELECT o_w_id, o_d_id, o_id FROM orders")? {
        *orders.entry((int(&row[0]), int(&row[1]))).or_default() += 1;
    }
    let mut new_orders: HashMap<(i64, i64), u64> = HashMap::new();
    for row in query(p, "SELECT no_w_id, no_d_id, no_o_id FROM new_order")? {
        *new_orders.entry((int(&row[0]), int(&row[1]))).or_default() += 1;
    }

    let journal = p.journal.borrow();
    for w in 0..cfg.total_warehouses() as i64 {
        let ytd = w_ytd
            .get(&w)
            .copied()
            .ok_or_else(|| format!("tpcc: warehouse {w} missing"))?;
        let d_sum = d_ytd_sum.get(&w).copied().unwrap_or(0.0);
        let h = h_sum.get(&w).copied().unwrap_or(0.0);
        if ytd != d_sum || ytd != h {
            return Err(format!(
                "tpcc: warehouse {w}: w_ytd {ytd} != sum d_ytd {d_sum} or sum h_amount {h}"
            ));
        }
        for d in 0..cfg.districts_per_warehouse as i64 {
            let key = (w, d);
            let next = *next_o_id
                .get(&key)
                .ok_or_else(|| format!("tpcc: district {w}/{d} missing"))?;
            let (committed, max_o_id) = journal.new_orders.get(&key).copied().unwrap_or((0, 0));
            let o = orders.get(&key).copied().unwrap_or(0);
            let no = new_orders.get(&key).copied().unwrap_or(0);
            if o != committed || no != committed || next - 1 != max_o_id {
                return Err(format!(
                    "tpcc: district {w}/{d}: {o} orders, {no} new_order rows, d_next_o_id {next}; \
                     {committed} New-Orders committed, highest order id {max_o_id}"
                ));
            }
        }
    }
    Ok(())
}
