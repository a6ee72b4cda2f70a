//! Durable-storage probe: drives the WAL + LSM + MVCC-GC engine directly
//! through a cold-key bloom workload, an overwrite-heavy GC workload
//! under an active protected timestamp, and a closing crash-recovery
//! smoke.

use mr_sim::SimRng;

use super::ProbeReport;
use crate::json::Json;

/// Everything the storage probe measures against the durable engine: bloom
/// effectiveness on a cold-key read workload, GC reclamation on an
/// overwrite-heavy workload under an active protected timestamp, and a
/// crash-recovery smoke over the resulting state.
#[derive(Clone)]
pub struct StorageProbeReport {
    /// Immutable sorted runs the cold-key phase built (one per flush).
    pub bloom_runs: usize,
    /// Point lookups issued in the measured read phase.
    pub bloom_lookups: u64,
    /// Per-run probes those lookups triggered.
    pub bloom_probes: u64,
    /// Probes answered by the bloom filter without touching run entries.
    pub bloom_skips: u64,
    /// `bloom_skips / bloom_probes` in milli (gate: >= 900).
    pub bloom_skip_milli: u64,
    /// Committed versions the overwrite phase wrote.
    pub gc_versions_written: usize,
    /// Versions resident before the first maintenance pass.
    pub gc_versions_before: usize,
    /// Versions resident after GC under the active protection.
    pub gc_versions_protected: usize,
    /// Versions resident after the protection is released and GC reruns.
    pub gc_versions_after: usize,
    /// Share of `gc_versions_before` reclaimed while the protection was
    /// still active, in milli (gate: >= 500).
    pub gc_reclaim_milli: u64,
    /// An AOST read at the protected timestamp returned the right value
    /// *after* GC ran up to it (gate: true).
    pub protected_read_ok: bool,
    /// A read below the ratcheted threshold failed with
    /// `BelowGcThreshold` rather than returning silently-incomplete data
    /// (gate: true).
    pub below_threshold_read_errors: bool,
    /// WAL records replayed by the closing crash-recovery smoke.
    pub wal_replayed: u64,
    /// Versions visible after recovery (must equal `gc_versions_after`).
    pub recovered_versions: usize,
}

/// Drive the storage engine the way a replica does — put intent, commit
/// it, seal the Raft entry into the WAL, fsync — one write per entry.
fn storage_commit(
    eng: &mut mr_storage::Engine,
    key: &mr_proto::Key,
    value: &str,
    ts: mr_clock::Timestamp,
    idx: &mut u64,
) {
    use mr_proto::{TxnId, TxnMeta};
    let txn = TxnMeta::new(TxnId(*idx), key.clone(), ts);
    eng.put(key, Some(mr_proto::Value::from(value)), &txn)
        .expect("probe writes never conflict");
    eng.commit_intent(key, txn.id, ts);
    eng.seal_entry(*idx, ts);
    eng.sync(ts.wall);
    *idx += 1;
}

/// Run the storage probe. Deterministic for a fixed seed: the seed only
/// shuffles the cold-key lookup order, never the data.
pub fn storage_probe(seed: u64) -> StorageProbeReport {
    use mr_clock::Timestamp;
    use mr_proto::{Key, ReadCtx};
    use mr_storage::{gc_threshold, Engine, MvccError, ProtectedTimestamps};

    let ns = 1_000_000_000u64;

    // ---- Workload A: cold keys spread over many sorted runs ----------
    //
    // 12 flushes of 64 disjoint keys each: every point lookup must
    // consult all 12 runs, and the bloom filters should answer all but
    // the (at most one) run actually holding the key.
    let mut eng = Engine::new();
    let mut idx = 1u64;
    let runs = 12usize;
    let per_run = 64usize;
    for r in 0..runs {
        for i in 0..per_run {
            let key = Key::from(format!("cold/{r:02}/{i:04}").as_str());
            let ts = Timestamp::new(idx * ns, 0);
            storage_commit(&mut eng, &key, "cold", ts, &mut idx);
        }
        eng.flush(idx * ns);
    }
    assert_eq!(eng.mem_version_count(), 0, "flushes drained the memtable");

    // Measured read phase: every present key once plus an equal volume
    // of absent keys, in seeded order.
    let mut lookups: Vec<Key> = Vec::new();
    for r in 0..runs {
        for i in 0..per_run {
            lookups.push(Key::from(format!("cold/{r:02}/{i:04}").as_str()));
            lookups.push(Key::from(format!("cold/{r:02}/absent-{i:04}").as_str()));
        }
    }
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0570_4a6e);
    for i in (1..lookups.len()).rev() {
        let j = rng.index(i + 1);
        lookups.swap(i, j);
    }
    let probes0 = eng.stats().bloom_probes.get();
    let skips0 = eng.stats().bloom_skips.get();
    let read_ts = Timestamp::new(idx * ns, 0);
    let ctx = ReadCtx::fresh(read_ts, read_ts);
    let mut hits = 0u64;
    for key in &lookups {
        let out = eng
            .get(key, &ctx)
            .expect("cold reads are above the GC floor");
        hits += u64::from(out.value.is_some());
    }
    assert_eq!(hits as usize, runs * per_run, "every present key was found");
    let bloom_probes = eng.stats().bloom_probes.get() - probes0;
    let bloom_skips = eng.stats().bloom_skips.get() - skips0;
    let bloom_skip_milli = bloom_skips * 1000 / bloom_probes.max(1);

    // ---- Workload B: overwrite-heavy GC under a protection -----------
    //
    // 50 keys, 40 committed versions each. An AOST reader pins round 30;
    // GC driven by the closed-timestamp frontier reclaims everything the
    // protection does not need, the pinned read still succeeds, and a
    // read below the ratcheted threshold errors.
    let mut eng = Engine::new();
    let mut idx = 1u64;
    let keys = 50usize;
    let rounds = 40u64;
    let mut protected = ProtectedTimestamps::new();
    let mut pin = None;
    let mut pin_ts = Timestamp::ZERO;
    for round in 0..rounds {
        let ts = Timestamp::new((round + 1) * ns, 0);
        if round == 30 {
            pin = Some(protected.protect(ts));
            pin_ts = ts;
        }
        for k in 0..keys {
            let key = Key::from(format!("hot/{k:03}").as_str());
            storage_commit(&mut eng, &key, &format!("v{round}"), ts, &mut idx);
        }
    }
    let gc_versions_written = keys * rounds as usize;
    let gc_versions_before = eng.version_count();
    let now = (rounds + 2) * ns;
    let closed = eng.closed_ts();

    // GC with the protection active: a 1s TTL would allow the threshold
    // up to `now - 1s`, but the pin clamps it to round 30.
    let th = gc_threshold(now, ns, closed, protected.min());
    assert_eq!(th, pin_ts, "the protection clamps the threshold");
    eng.maintain(th, now);
    let gc_versions_protected = eng.version_count();
    let reclaimed = gc_versions_before - gc_versions_protected;
    let gc_reclaim_milli = reclaimed as u64 * 1000 / gc_versions_before.max(1) as u64;

    // The pinned AOST read still sees round 30's value on every key.
    let ctx = ReadCtx::fresh(pin_ts, pin_ts);
    let protected_read_ok = (0..keys).all(|k| {
        let key = Key::from(format!("hot/{k:03}").as_str());
        matches!(
            eng.get(&key, &ctx),
            Ok(out) if out.value == Some(mr_proto::Value::from("v30"))
        )
    });

    // A read below the threshold must fail loudly, never return a
    // silently-incomplete snapshot.
    let stale = Timestamp::new(10 * ns, 0);
    let below_threshold_read_errors = matches!(
        eng.get(&Key::from("hot/000"), &ReadCtx::fresh(stale, stale)),
        Err(MvccError::BelowGcThreshold { .. })
    );

    // Release the pin: the next pass may advance to the closed frontier
    // and fold history down to one live version per key.
    if let Some(id) = pin {
        protected.release(id);
    }
    let th2 = gc_threshold(now, ns, closed, protected.min());
    eng.maintain(th2, now);
    let gc_versions_after = eng.version_count();

    // ---- Crash-recovery smoke over the GC'd engine -------------------
    let info = eng.crash_and_recover();
    let recovered_versions = eng.version_count();

    StorageProbeReport {
        bloom_runs: runs,
        bloom_lookups: lookups.len() as u64,
        bloom_probes,
        bloom_skips,
        bloom_skip_milli,
        gc_versions_written,
        gc_versions_before,
        gc_versions_protected,
        gc_versions_after,
        gc_reclaim_milli,
        protected_read_ok,
        below_threshold_read_errors,
        wal_replayed: info.replayed_records,
        recovered_versions,
    }
}

impl ProbeReport for StorageProbeReport {
    fn json(&self) -> String {
        Json::doc([
            (
                "bloom",
                Json::obj([
                    ("runs", self.bloom_runs.into()),
                    ("lookups", self.bloom_lookups.into()),
                    ("probes", self.bloom_probes.into()),
                    ("skips", self.bloom_skips.into()),
                    ("skip_milli", self.bloom_skip_milli.into()),
                ]),
            ),
            (
                "gc",
                Json::obj([
                    ("versions_written", self.gc_versions_written.into()),
                    ("versions_before", self.gc_versions_before.into()),
                    ("versions_protected", self.gc_versions_protected.into()),
                    ("versions_after", self.gc_versions_after.into()),
                    ("reclaim_milli", self.gc_reclaim_milli.into()),
                    ("protected_read_ok", self.protected_read_ok.into()),
                    (
                        "below_threshold_read_errors",
                        self.below_threshold_read_errors.into(),
                    ),
                ]),
            ),
            (
                "recovery",
                Json::obj([
                    ("wal_replayed", self.wal_replayed.into()),
                    ("recovered_versions", self.recovered_versions.into()),
                ]),
            ),
        ])
    }

    /// Fails if the bloom skip rate drops under 90%, if GC reclaims under
    /// 50% of the overwritten history, if a protected AOST read breaks, if
    /// below-threshold reads stop erroring, or if WAL replay loses
    /// versions.
    fn gate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        // Cold-key lookups are answered by the bloom filters for (nearly)
        // every run that does not hold the key.
        if self.bloom_skip_milli < 900 {
            failures.push(format!(
                "bloom skip rate {}/1000 under the 900 floor ({} skips / {} probes over {} runs)",
                self.bloom_skip_milli, self.bloom_skips, self.bloom_probes, self.bloom_runs
            ));
        }
        // GC must reclaim at least half the overwrite-heavy history even
        // while a protection pins a mid-history timestamp.
        if self.gc_reclaim_milli < 500 {
            failures.push(format!(
                "gc reclaimed only {}/1000 of the overwritten versions ({} -> {})",
                self.gc_reclaim_milli, self.gc_versions_before, self.gc_versions_protected
            ));
        }
        if !self.protected_read_ok {
            failures.push("AOST read at the protected timestamp broke after GC".into());
        }
        if !self.below_threshold_read_errors {
            failures.push(
                "read below the GC threshold returned data instead of BelowGcThreshold".into(),
            );
        }
        // Released protection: history folds to one live version per key.
        if self.gc_versions_after >= self.gc_versions_protected {
            failures.push(format!(
                "releasing the protection reclaimed nothing ({} -> {})",
                self.gc_versions_protected, self.gc_versions_after
            ));
        }
        // Crash-recovery smoke: replay reconstructs the exact surviving
        // state.
        if self.recovered_versions != self.gc_versions_after {
            failures.push(format!(
                "WAL replay recovered {} versions, expected {}",
                self.recovered_versions, self.gc_versions_after
            ));
        }
        failures
    }
}
