//! Crash-safe, append-only outcome ledger — the persistent memory of a
//! campaign.
//!
//! A classified mutant is a pure function of its inputs: the driver
//! source (hashed), the scenario, the fault plan and seed, the dead-code
//! refinement line, and the revision of the `.dil` specs + engine that
//! judged it. The ledger stores one record per such classification so
//! that re-runs of unchanged pairs are O(1) lookups instead of a full
//! compile + boot — ROADMAP item 3a. The same file carries
//! [`Quarantine`](crate::Quarantine) strikes, so a restarted service
//! still refuses known poison mutants.
//!
//! # File format
//!
//! The file is a flat sequence of records, each framed as
//!
//! ```text
//! len: u32 LE | check: u64 LE | payload: len bytes
//! ```
//!
//! where `check` is the FNV-1a (8-byte lane) hash of the payload. The
//! payload starts with a tag byte: `1` = outcome (key, wire code,
//! detail), `2` = strike (file, source fingerprint), `3` = evict
//! (key tombstone). Integers are little-endian; strings are
//! `u32 len + UTF-8`. Records are only ever appended, each with a single
//! `write_all` — there is no user-space buffering, so a `kill -9` can
//! tear at most the one record being written.
//!
//! # Recovery contract
//!
//! Opening with [`Ledger::resume`] replays the file front to back. The
//! first record that fails *any* check — short header, length over
//! [`MAX_RECORD`], checksum mismatch, unparseable or trailing-junk
//! payload — ends the replay: the file is **truncated to the last valid
//! record** and the ledger continues from there. Recovery never panics
//! and never surfaces a partial record; a torn tail costs exactly the
//! outcomes that had not finished writing. What was dropped is reported
//! in [`Recovery::torn_bytes`].
//!
//! **Staleness:** every outcome key embeds the spec-revision fingerprint
//! it was classified under (see [`spec_revision`]). Records
//! whose revision differs from the one the ledger was opened with are
//! counted in [`Recovery::stale`] and never indexed — a changed spec or
//! engine silently invalidates the cache instead of serving wrong
//! outcomes. [`Ledger::lookup`] re-checks the revision as a second
//! guard. Strike records are *not* revision-gated: a mutant that broke
//! the harness is assumed poison until an operator clears the file.
//!
//! # The memo stage
//!
//! Both campaign front doors — the batch `Campaign::run_memoized` and the
//! service's admission path — memoize through one pair of calls that owns
//! the whole policy: [`Ledger::admit`] before a job runs and
//! [`Ledger::settle`] after. A sampled hit replayed against the live
//! engine (the service's `--verify-fraction` mode) that disagrees is
//! treated as corruption: [`Ledger::evict`] appends a tombstone (the
//! entry is dead from that point on, including across future
//! recoveries), and the fresh outcome is recorded in its place. Lookups
//! can therefore only ever return a value that was (a) written whole,
//! (b) classified under the current spec revision, and (c) not since
//! evicted.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Largest accepted record payload; a length field beyond this is treated
/// as corruption (same bound as the wire protocol's frame cap).
pub const MAX_RECORD: u32 = 16 << 20;

const TAG_OUTCOME: u8 = 1;
const TAG_STRIKE: u8 = 2;
const TAG_EVICT: u8 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Canonical FNV-1a over bytes — the stable, dependency-free hash every
/// fingerprint in the workspace is built from.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continue the FNV-1a hash `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a folded over 8-byte lanes: the same mixing step applied to
/// `u64` words instead of bytes, ~8× the scan rate. Used where the input
/// is a whole driver source and the hash sits on the admission hot path.
/// Not byte-compatible with [`fnv1a`]; both are stable.
pub fn fnv1a_wide(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of a full (mutated) driver source — the `source` component
/// of a [`LedgerKey`] and of quarantine strike keys.
pub fn source_fingerprint(source: &str) -> u64 {
    fnv1a_wide(source.as_bytes())
}

/// Spec-revision fingerprint, the `spec_rev` of a [`LedgerKey`]: FNV-1a
/// over the engine version, the `fuel` budget and each `(file name,
/// source)` pair of `specs` in order, each field closed by a `0xff` byte
/// so `("ab", "c")` and `("a", "bc")` differ. A memoized outcome is valid
/// only while the world that produced it is unchanged, and any change to
/// any input moves the revision: the ledger then counts the old entries
/// stale and re-classifies instead of serving an answer computed by a
/// different engine. `devil_drivers::corpus::spec_revision` feeds it the
/// five bundled specs. Computed once per process or campaign, never on a
/// per-mutant path.
pub fn spec_revision<'a>(specs: impl IntoIterator<Item = (&'a str, &'a str)>, fuel: u64) -> u64 {
    let field = |h: u64, bytes: &[u8]| fnv1a_extend(fnv1a_extend(h, bytes), &[0xff]);
    let mut h = field(FNV_OFFSET, env!("CARGO_PKG_VERSION").as_bytes());
    h = field(h, &fuel.to_le_bytes());
    for (file, source) in specs {
        h = field(h, file.as_bytes());
        h = field(h, source.as_bytes());
    }
    h
}

/// Identity of one classification. Two runs with equal keys are the same
/// pure computation and must produce the same outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LedgerKey {
    /// Driver file name the mutant was spliced into.
    pub file: String,
    /// [`source_fingerprint`] of the full mutated source — this pins the
    /// mutant site *and* operator, since any edit changes the hash.
    pub source: u64,
    /// Scenario name (e.g. `ide-boot`).
    pub scenario: String,
    /// Fault plan name; empty for fault-free runs.
    pub plan: String,
    /// Fault plan seed (ignored by rule-less plans but part of identity;
    /// 0 for fault-free runs).
    pub plan_seed: u64,
    /// Dead-code refinement line (1-based), or 0 when the run had none —
    /// DeadCode outcomes depend on it, so it is part of the key.
    pub dead_line: u32,
    /// [`spec_revision`] fingerprint (specs + engine version + fuel budget).
    pub spec_rev: u64,
}

impl LedgerKey {
    /// The key of classifying the mutated `source` of driver file `file`
    /// (hashed with [`source_fingerprint`]); the other arguments are the
    /// fields of the same name. An empty `plan` is fault-free hardware,
    /// whose seed is set to 0: a fault-free run is the same run whatever
    /// seed came with it.
    pub fn new(
        file: &str,
        source: &str,
        scenario: &str,
        plan: &str,
        plan_seed: u64,
        dead_line: u32,
        spec_rev: u64,
    ) -> LedgerKey {
        LedgerKey {
            file: file.to_string(),
            source: source_fingerprint(source),
            scenario: scenario.to_string(),
            plan: plan.to_string(),
            plan_seed: if plan.is_empty() { 0 } else { plan_seed },
            dead_line,
            spec_rev,
        }
    }
}

/// Deterministic verification sample: hash the key's identity and admit
/// the fraction of the hash space below the threshold. The same key
/// always lands on the same side, so re-submitting a mutant audits it
/// (or not) consistently — no RNG state, no cross-restart drift.
fn in_verify_sample(key: &LedgerKey, fraction: f64) -> bool {
    // Fraction 0 (the batch door) hashes nothing.
    if fraction <= 0.0 {
        return false;
    }
    let mut id = Vec::with_capacity(key.file.len() + key.scenario.len() + 32);
    id.extend_from_slice(key.file.as_bytes());
    id.extend_from_slice(&key.source.to_le_bytes());
    id.extend_from_slice(key.scenario.as_bytes());
    id.extend_from_slice(key.plan.as_bytes());
    id.extend_from_slice(&key.plan_seed.to_le_bytes());
    id.extend_from_slice(&key.dead_line.to_le_bytes());
    let h = fnv1a(&id);
    // Top 53 bits → uniform in [0, 1): exact in f64.
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    unit < fraction
}

/// The memo stage's answer to one job ([`Ledger::admit`]).
#[derive(Debug)]
pub enum Admission<O> {
    /// The ledger holds the job's outcome: serve it and run nothing.
    Hit(O),
    /// Run the job, then [`Ledger::settle`] its outcome with this ticket.
    Run(Ticket),
}

/// A job's key, and the recorded `(code, detail)` its fresh outcome is
/// audited against when the key fell in the verify sample.
#[derive(Debug)]
pub struct Ticket {
    key: LedgerKey,
    audit: Option<(u8, String)>,
}

/// What [`Ledger::resume`] found while replaying the file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Valid records replayed (outcomes + strikes + tombstones).
    pub records: usize,
    /// Outcome entries live in the index after replay.
    pub outcomes: usize,
    /// Strike records replayed.
    pub strikes: usize,
    /// Outcome records skipped because their spec revision differs from
    /// the one the ledger was opened with.
    pub stale: usize,
    /// Bytes of torn/corrupt tail truncated away.
    pub torn_bytes: u64,
}

/// Monotonic usage counters, cheap enough to read per STATS request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCounters {
    /// Lookups answered from the index.
    pub hits: u64,
    /// Lookups that found nothing (and presumably went to the engine).
    pub misses: u64,
    /// Records appended since open (outcomes + strikes + tombstones).
    pub appended: u64,
    /// Audited jobs whose fresh outcome matched the recorded one.
    pub verified: u64,
    /// Audited jobs whose fresh outcome differed: the entry was evicted
    /// and the fresh outcome, if deterministic, recorded in its place.
    pub diverged: u64,
}

/// The crash-safe outcome store; see the [module docs](self) for the
/// format and recovery contract.
#[derive(Debug)]
pub struct Ledger {
    file: Mutex<File>,
    index: Mutex<HashMap<LedgerKey, (u8, String)>>,
    strikes: Mutex<HashMap<(String, u64), u32>>,
    path: PathBuf,
    spec_rev: u64,
    recovery: Recovery,
    hits: AtomicU64,
    misses: AtomicU64,
    appended: AtomicU64,
    verified: AtomicU64,
    diverged: AtomicU64,
}

impl Ledger {
    /// Start a fresh ledger at `path` (truncating any existing file),
    /// keyed to `spec_rev`.
    pub fn create(path: impl AsRef<Path>, spec_rev: u64) -> io::Result<Ledger> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Ledger {
            file: Mutex::new(file),
            index: Mutex::new(HashMap::new()),
            strikes: Mutex::new(HashMap::new()),
            path: path.to_path_buf(),
            spec_rev,
            recovery: Recovery::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            diverged: AtomicU64::new(0),
        })
    }

    /// Open (creating if missing) and recover the ledger at `path`: replay
    /// every valid record, truncate the torn tail, continue appending.
    /// Never fails on *content* — only on I/O errors from the filesystem.
    pub fn resume(path: impl AsRef<Path>, spec_rev: u64) -> io::Result<Ledger> {
        let path = path.as_ref();
        // truncate(false): recovery must read the survivors first; the torn
        // tail is cut precisely with `set_len` below, not wholesale here.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut index: HashMap<LedgerKey, (u8, String)> = HashMap::new();
        let mut strikes: HashMap<(String, u64), u32> = HashMap::new();
        let mut recovery = Recovery::default();
        let mut off = 0usize;
        while let Some((record, next)) = parse_record(&bytes, off) {
            recovery.records += 1;
            match record {
                Record::Outcome { key, code, detail } => {
                    if key.spec_rev == spec_rev {
                        index.insert(key, (code, detail));
                    } else {
                        recovery.stale += 1;
                    }
                }
                Record::Strike { file, fingerprint } => {
                    recovery.strikes += 1;
                    *strikes.entry((file, fingerprint)).or_insert(0) += 1;
                }
                Record::Evict { key } => {
                    index.remove(&key);
                }
            }
            off = next;
        }
        recovery.outcomes = index.len();
        recovery.torn_bytes = (bytes.len() - off) as u64;
        // Truncate the torn tail so the next append starts on a record
        // boundary; a second crash before any append re-recovers to the
        // same point.
        file.set_len(off as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Ledger {
            file: Mutex::new(file),
            index: Mutex::new(index),
            strikes: Mutex::new(strikes),
            path: path.to_path_buf(),
            spec_rev,
            recovery,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            diverged: AtomicU64::new(0),
        })
    }

    /// The spec revision this ledger serves.
    pub fn spec_rev(&self) -> u64 {
        self.spec_rev
    }

    /// Where the ledger lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What recovery found at open time (all zeros after [`Ledger::create`]).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Usage counters since open.
    pub fn counters(&self) -> LedgerCounters {
        LedgerCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            diverged: self.diverged.load(Ordering::Relaxed),
        }
    }

    /// Number of outcome entries currently servable.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// Whether no outcome entry is servable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) memoized lookup: the stored `(wire code, detail)` for `key`,
    /// or `None` (counted as a miss) when absent — or when the key's
    /// revision does not match the ledger's, which can only happen to a
    /// caller mixing revisions and must never be served.
    pub fn lookup(&self, key: &LedgerKey) -> Option<(u8, String)> {
        if key.spec_rev != self.spec_rev {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.index.lock().unwrap().get(key) {
            Some((code, detail)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((*code, detail.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The memo stage's admission half: look `key` up (counting a hit or
    /// a miss). A miss runs the job. A hit whose key falls in the
    /// deterministic verify sample of `verify_fraction` (0.0..=1.0) runs
    /// it anyway, with the recorded entry on the ticket for
    /// [`Ledger::settle`] to audit. Any other hit is answered with
    /// `decode(code, detail)` — unless `decode` does not know the code
    /// (written by a newer build): then the entry is evicted and the job
    /// runs.
    pub fn admit<O>(
        &self,
        key: LedgerKey,
        verify_fraction: f64,
        decode: impl FnOnce(u8, &str) -> Option<O>,
    ) -> Admission<O> {
        let Some((code, detail)) = self.lookup(&key) else {
            return Admission::Run(Ticket { key, audit: None });
        };
        if in_verify_sample(&key, verify_fraction) {
            return Admission::Run(Ticket { key, audit: Some((code, detail)) });
        }
        match decode(code, &detail) {
            Some(outcome) => Admission::Hit(outcome),
            None => {
                let _ = self.evict(&key);
                Admission::Run(Ticket { key, audit: None })
            }
        }
    }

    /// The memo stage's settlement half, once an admitted job's outcome
    /// exists: `fresh` is its `(wire code, detail)`, or `None` when it is
    /// not deterministic (an engine error, a deadline overrun) and must
    /// never be memoized. An unaudited job records a deterministic
    /// outcome. An audited one that agrees with the recorded entry is
    /// counted verified; one that disagrees means the entry is corrupt
    /// (or the engine changed without a spec-revision bump): it is
    /// evicted, a deterministic fresh outcome recorded in its place, and
    /// the divergence counted. Append failures are swallowed: they cost
    /// memoization, never the outcome the caller returns.
    pub fn settle(&self, ticket: &Ticket, fresh: Option<(u8, &str)>) {
        match &ticket.audit {
            Some((code, detail)) if fresh == Some((*code, detail.as_str())) => {
                self.verified.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(_) => {
                self.diverged.fetch_add(1, Ordering::Relaxed);
                let _ = self.evict(&ticket.key);
            }
            None => {}
        }
        if let Some((code, detail)) = fresh {
            let _ = self.record(&ticket.key, code, detail);
        }
    }

    /// Append one classified outcome and index it. Callers must only
    /// record *deterministic* outcomes (no engine errors, no deadline
    /// overruns): the ledger stores what it is given.
    pub fn record(&self, key: &LedgerKey, code: u8, detail: &str) -> io::Result<()> {
        let mut payload = Vec::with_capacity(64 + key.file.len() + detail.len());
        payload.push(TAG_OUTCOME);
        put_key(&mut payload, key);
        payload.push(code);
        put_str(&mut payload, detail);
        self.append(&payload)?;
        self.index.lock().unwrap().insert(key.clone(), (code, detail.to_string()));
        Ok(())
    }

    /// Append a tombstone for `key` and drop it from the index — the
    /// corruption response of the verification path.
    pub fn evict(&self, key: &LedgerKey) -> io::Result<()> {
        let mut payload = Vec::with_capacity(64 + key.file.len());
        payload.push(TAG_EVICT);
        put_key(&mut payload, key);
        self.append(&payload)?;
        self.index.lock().unwrap().remove(key);
        Ok(())
    }

    /// Append one quarantine strike against `(file, fingerprint)` and
    /// return the new durable strike count.
    pub fn record_strike(&self, file: &str, fingerprint: u64) -> io::Result<u32> {
        let mut payload = Vec::with_capacity(16 + file.len());
        payload.push(TAG_STRIKE);
        put_str(&mut payload, file);
        put_u64(&mut payload, fingerprint);
        self.append(&payload)?;
        let mut strikes = self.strikes.lock().unwrap();
        let n = strikes.entry((file.to_string(), fingerprint)).or_insert(0);
        *n += 1;
        Ok(*n)
    }

    /// Durable strike counts per `(file, fingerprint)`, sorted for stable
    /// presentation.
    pub fn strike_counts(&self) -> Vec<((String, u64), u32)> {
        let mut v: Vec<_> =
            self.strikes.lock().unwrap().iter().map(|(k, n)| (k.clone(), *n)).collect();
        v.sort();
        v
    }

    fn append(&self, payload: &[u8]) -> io::Result<()> {
        debug_assert!(payload.len() <= MAX_RECORD as usize);
        let mut record = Vec::with_capacity(12 + payload.len());
        put_u32(&mut record, payload.len() as u32);
        put_u64(&mut record, fnv1a_wide(payload));
        record.extend_from_slice(payload);
        // One write_all per record: a crash tears at most this record,
        // which recovery truncates away.
        self.file.lock().unwrap().write_all(&record)?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

enum Record {
    Outcome { key: LedgerKey, code: u8, detail: String },
    Strike { file: String, fingerprint: u64 },
    Evict { key: LedgerKey },
}

/// Parse the record starting at `off`; `None` on any framing, checksum or
/// payload defect — the caller truncates from `off`.
fn parse_record(bytes: &[u8], off: usize) -> Option<(Record, usize)> {
    let header = bytes.get(off..off + 12)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    if len > MAX_RECORD as usize {
        return None;
    }
    let check = u64::from_le_bytes(header[4..12].try_into().ok()?);
    let payload = bytes.get(off + 12..off + 12 + len)?;
    if fnv1a_wide(payload) != check {
        return None;
    }
    let mut rd = Rd { bytes: payload, off: 0 };
    let record = match rd.u8()? {
        TAG_OUTCOME => {
            let key = rd.key()?;
            let code = rd.u8()?;
            let detail = rd.str()?;
            Record::Outcome { key, code, detail }
        }
        TAG_STRIKE => Record::Strike { file: rd.str()?, fingerprint: rd.u64()? },
        TAG_EVICT => Record::Evict { key: rd.key()? },
        _ => return None,
    };
    // A checksum-valid payload with trailing bytes means a framing bug;
    // refuse it rather than guess.
    if rd.off != payload.len() {
        return None;
    }
    Some((record, off + 12 + len))
}

struct Rd<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl Rd<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.off)?;
        self.off += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.off..self.off + 4)?;
        self.off += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.bytes.get(self.off..self.off + 8)?;
        self.off += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let b = self.bytes.get(self.off..self.off.checked_add(len)?)?;
        self.off += len;
        String::from_utf8(b.to_vec()).ok()
    }

    fn key(&mut self) -> Option<LedgerKey> {
        Some(LedgerKey {
            file: self.str()?,
            source: self.u64()?,
            scenario: self.str()?,
            plan: self.str()?,
            plan_seed: self.u64()?,
            dead_line: self.u32()?,
            spec_rev: self.u64()?,
        })
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &LedgerKey) {
    put_str(out, &key.file);
    put_u64(out, key.source);
    put_str(out, &key.scenario);
    put_str(out, &key.plan);
    put_u64(out, key.plan_seed);
    put_u32(out, key.dead_line);
    put_u64(out, key.spec_rev);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("devil-ledger-{}-{name}.bin", std::process::id()))
    }

    fn key(n: u64) -> LedgerKey {
        LedgerKey {
            file: "busmouse.c".into(),
            source: n,
            scenario: "mouse-stream".into(),
            plan: "none".into(),
            plan_seed: 0,
            dead_line: 0,
            spec_rev: 77,
        }
    }

    #[test]
    fn record_and_resume_round_trip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            ledger.record(&key(1), 0, "").unwrap();
            ledger.record(&key(2), 4, "boot check: panic").unwrap();
            assert_eq!(ledger.counters().appended, 2);
        }
        let ledger = Ledger::resume(&path, 77).unwrap();
        assert_eq!(ledger.recovery().records, 2);
        assert_eq!(ledger.recovery().torn_bytes, 0);
        assert_eq!(ledger.lookup(&key(1)), Some((0, String::new())));
        assert_eq!(ledger.lookup(&key(2)), Some((4, "boot check: panic".into())));
        assert_eq!(ledger.lookup(&key(3)), None);
        let c = ledger.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            ledger.record(&key(1), 0, "").unwrap();
            ledger.record(&key(2), 1, "detail").unwrap();
        }
        let whole = std::fs::read(&path).unwrap();
        // Chop mid-record: everything except the last 3 bytes.
        std::fs::write(&path, &whole[..whole.len() - 3]).unwrap();
        let ledger = Ledger::resume(&path, 77).unwrap();
        assert_eq!(ledger.recovery().records, 1);
        assert!(ledger.recovery().torn_bytes > 0);
        assert_eq!(ledger.lookup(&key(1)), Some((0, String::new())));
        assert_eq!(ledger.lookup(&key(2)), None, "torn record never served");
        // The file was truncated to the valid prefix; appending after
        // recovery yields a clean two-record file again.
        ledger.record(&key(2), 1, "detail").unwrap();
        drop(ledger);
        assert_eq!(std::fs::read(&path).unwrap(), whole);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_revision_entries_are_never_served() {
        let path = tmp("stale");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            ledger.record(&key(1), 2, "old world").unwrap();
        }
        let ledger = Ledger::resume(&path, 78).unwrap();
        assert_eq!(ledger.recovery().stale, 1);
        assert_eq!(ledger.len(), 0);
        let mut k = key(1);
        assert_eq!(ledger.lookup(&k), None, "key carries the new rev");
        k.spec_rev = 77;
        assert_eq!(ledger.lookup(&k), None, "old-rev key refused outright");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evict_tombstones_survive_recovery() {
        let path = tmp("evict");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            ledger.record(&key(1), 3, "wrong").unwrap();
            ledger.evict(&key(1)).unwrap();
            assert_eq!(ledger.lookup(&key(1)), None);
        }
        let ledger = Ledger::resume(&path, 77).unwrap();
        assert_eq!(ledger.lookup(&key(1)), None, "tombstone replayed");
        assert_eq!(ledger.recovery().records, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn strikes_accumulate_and_persist() {
        let path = tmp("strikes");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            assert_eq!(ledger.record_strike("ide.c", 9).unwrap(), 1);
            assert_eq!(ledger.record_strike("ide.c", 9).unwrap(), 2);
            assert_eq!(ledger.record_strike("ne2000.c", 4).unwrap(), 1);
        }
        let ledger = Ledger::resume(&path, 99).unwrap();
        assert_eq!(
            ledger.strike_counts(),
            vec![(("ide.c".into(), 9), 2), (("ne2000.c".into(), 4), 1)],
            "strikes survive restart and revision changes"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_truncates_an_existing_file() {
        let path = tmp("truncate");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = Ledger::create(&path, 77).unwrap();
            ledger.record(&key(1), 0, "").unwrap();
        }
        let ledger = Ledger::create(&path, 77).unwrap();
        assert!(ledger.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The decoder the memo-stage tests use: codes above 100 are "from a
    /// newer build" and unknown.
    fn decode(code: u8, detail: &str) -> Option<(u8, String)> {
        (code <= 100).then(|| (code, detail.to_string()))
    }

    /// Admit `key` and expect the job to run; returns its ticket.
    fn admit_run(ledger: &Ledger, key: LedgerKey, fraction: f64) -> Ticket {
        match ledger.admit(key, fraction, decode) {
            Admission::Run(ticket) => ticket,
            Admission::Hit(hit) => panic!("expected the job to run, got hit {hit:?}"),
        }
    }

    fn counts(ledger: &Ledger) -> (u64, u64, u64, u64, u64) {
        let c = ledger.counters();
        (c.hits, c.misses, c.appended, c.verified, c.diverged)
    }

    #[test]
    fn memo_stage_miss_runs_and_records() {
        let path = tmp("memo-miss");
        let ledger = Ledger::create(&path, 77).unwrap();
        let ticket = admit_run(&ledger, key(1), 0.0);
        assert!(ticket.audit.is_none());
        ledger.settle(&ticket, Some((2, "halted")));
        assert_eq!(counts(&ledger), (0, 1, 1, 0, 0));
        assert_eq!(ledger.lookup(&key(1)), Some((2, "halted".into())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_stage_hit_answers_without_running() {
        let path = tmp("memo-hit");
        let ledger = Ledger::create(&path, 77).unwrap();
        ledger.record(&key(1), 4, "boot check").unwrap();
        match ledger.admit(key(1), 0.0, decode) {
            Admission::Hit(hit) => assert_eq!(hit, (4, "boot check".into())),
            Admission::Run(ticket) => panic!("expected a hit, got {ticket:?}"),
        }
        assert_eq!(counts(&ledger), (1, 0, 1, 0, 0), "a hit appends nothing");
        assert_eq!(ledger.lookup(&key(1)), Some((4, "boot check".into())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_stage_audited_agreement_is_verified() {
        let path = tmp("memo-verified");
        let ledger = Ledger::create(&path, 77).unwrap();
        ledger.record(&key(1), 4, "boot check").unwrap();
        let ticket = admit_run(&ledger, key(1), 1.0);
        assert_eq!(ticket.audit, Some((4, "boot check".into())));
        ledger.settle(&ticket, Some((4, "boot check")));
        assert_eq!(counts(&ledger), (1, 0, 1, 1, 0), "verification appends nothing");
        assert_eq!(ledger.lookup(&key(1)), Some((4, "boot check".into())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_stage_audited_disagreement_evicts_records_and_diverges() {
        let path = tmp("memo-diverged");
        let ledger = Ledger::create(&path, 77).unwrap();
        ledger.record(&key(1), 3, "planted lie").unwrap();
        let ticket = admit_run(&ledger, key(1), 1.0);
        ledger.settle(&ticket, Some((0, "")));
        // Record + tombstone + fresh record.
        assert_eq!(counts(&ledger), (1, 0, 3, 0, 1));
        assert_eq!(ledger.lookup(&key(1)), Some((0, String::new())));
        drop(ledger);
        let ledger = Ledger::resume(&path, 77).unwrap();
        assert_eq!(ledger.lookup(&key(1)), Some((0, String::new())), "the repair is durable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_stage_evicts_an_undecodable_code_then_reruns() {
        let path = tmp("memo-undecodable");
        let ledger = Ledger::create(&path, 77).unwrap();
        ledger.record(&key(1), 200, "from a newer build").unwrap();
        let ticket = admit_run(&ledger, key(1), 0.0);
        assert!(ticket.audit.is_none(), "an undecodable entry is not audited");
        assert_eq!(counts(&ledger), (1, 0, 2, 0, 0), "record + tombstone");
        assert_eq!(ledger.len(), 0, "the entry is gone before the re-run");
        ledger.settle(&ticket, Some((1, "")));
        assert_eq!(counts(&ledger), (1, 0, 3, 0, 0));
        assert_eq!(ledger.lookup(&key(1)), Some((1, String::new())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_stage_never_records_a_non_deterministic_outcome() {
        let path = tmp("memo-nondeterministic");
        let ledger = Ledger::create(&path, 77).unwrap();
        // Unaudited miss: nothing to record, nothing counted.
        let ticket = admit_run(&ledger, key(1), 0.0);
        ledger.settle(&ticket, None);
        assert_eq!(counts(&ledger), (0, 1, 0, 0, 0));
        assert_eq!(ledger.lookup(&key(1)), None);
        // Audited hit: the entry cannot be confirmed, so it diverges and
        // is evicted, and the fresh outcome is still not recorded.
        ledger.record(&key(2), 4, "boot check").unwrap();
        let ticket = admit_run(&ledger, key(2), 1.0);
        ledger.settle(&ticket, None);
        assert_eq!(counts(&ledger), (1, 2, 2, 0, 1), "record + tombstone only");
        assert_eq!(ledger.lookup(&key(2)), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_sample_is_stable_per_key_and_bounded_by_the_fraction() {
        let keys: Vec<LedgerKey> = (0..1000).map(key).collect();
        assert!(keys.iter().all(|k| !in_verify_sample(k, 0.0)), "fraction 0 takes nothing");
        assert!(keys.iter().all(|k| in_verify_sample(k, 1.0)), "fraction 1 takes everything");
        let half: Vec<bool> = keys.iter().map(|k| in_verify_sample(k, 0.5)).collect();
        let again: Vec<bool> = keys.iter().map(|k| in_verify_sample(k, 0.5)).collect();
        assert_eq!(half, again, "the same key always lands on the same side");
        let taken = half.iter().filter(|&&t| t).count();
        assert!((400..=600).contains(&taken), "half of 1000 keys, got {taken}");
        // The revision is not part of the sample: an entry is audited (or
        // not) consistently across spec revisions.
        let mut other_rev = key(5);
        other_rev.spec_rev = 78;
        assert_eq!(in_verify_sample(&other_rev, 0.5), half[5]);
    }

    #[test]
    fn ledger_key_new_zeroes_the_seed_of_fault_free_runs() {
        let fault_free = LedgerKey::new("ide.c", "int x;", "ide-boot", "", 0x5EED, 12, 77);
        assert_eq!(
            fault_free,
            LedgerKey {
                file: "ide.c".into(),
                source: source_fingerprint("int x;"),
                scenario: "ide-boot".into(),
                plan: String::new(),
                plan_seed: 0,
                dead_line: 12,
                spec_rev: 77,
            }
        );
        assert_eq!(fault_free, LedgerKey::new("ide.c", "int x;", "ide-boot", "", 1, 12, 77));
        let faulted = LedgerKey::new("ide.c", "int x;", "ide-boot", "mixed", 0x5EED, 12, 77);
        assert_eq!((faulted.plan.as_str(), faulted.plan_seed), ("mixed", 0x5EED));
        let none_plan = LedgerKey::new("ide.c", "int x;", "ide-boot", "none", 9, 12, 77);
        assert_eq!(none_plan.plan_seed, 9, "a named plan keeps its seed, even `none`");
    }

    #[test]
    fn wide_and_byte_fnv_agree_on_quality_not_value() {
        // Different scan widths, same role: stable, spread-out hashes.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a_wide(b""), FNV_OFFSET);
        assert_ne!(fnv1a_wide(b"devil driver source"), fnv1a_wide(b"devil driver sourcf"));
        assert_ne!(fnv1a_wide(b"0123456789abcdef"), fnv1a_wide(b"0123456789abcdeg"));
    }

    #[test]
    fn revision_is_stable_for_equal_inputs() {
        let specs = [("a.dil", "device a;"), ("b.dil", "device b;")];
        assert_eq!(spec_revision(specs, 100), spec_revision(specs, 100));
    }

    #[test]
    fn any_input_change_moves_the_revision() {
        let base = spec_revision([("a.dil", "device a;")], 100);
        assert_ne!(base, spec_revision([("a.dil", "device a ;")], 100), "source");
        assert_ne!(base, spec_revision([("b.dil", "device a;")], 100), "file name");
        assert_ne!(base, spec_revision([("a.dil", "device a;")], 101), "fuel");
        assert_ne!(
            base,
            spec_revision([("a.dil", "device a;"), ("z.dil", "x")], 100),
            "spec set"
        );
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        assert_ne!(
            spec_revision([("ab", "c")], 0),
            spec_revision([("a", "bc")], 0),
            "separator keeps shifted boundaries distinct"
        );
    }
}
