//! Repeat-offender tracking for supervised campaigns.
//!
//! Worker supervision (see [`campaign`](crate::campaign#worker-supervision))
//! turns a classify panic into an ordinary outcome — which means a mutant
//! that *reliably* breaks the engine could be resubmitted forever, paying
//! a workspace rebuild every time. A [`Quarantine`] is the memory that
//! stops that: it counts strikes per job key (typically
//! `(driver file, mutant-source hash)`), and once a key crosses the
//! caller's strike limit, admission refuses it outright instead of
//! letting it at another worker.
//!
//! The ledger is deliberately simple — a `Mutex<HashMap>` — because it is
//! touched only on the failure path (a strike) and at admission (a read),
//! never per classified mutant.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// A strike ledger keyed by job identity; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Quarantine<K> {
    strikes: Mutex<HashMap<K, u32>>,
}

impl<K: Eq + Hash + Clone> Quarantine<K> {
    /// An empty ledger.
    pub fn new() -> Self {
        Quarantine { strikes: Mutex::new(HashMap::new()) }
    }

    /// Record one strike against `key`, returning the new strike count.
    pub fn record(&self, key: K) -> u32 {
        let mut strikes = self.strikes.lock().unwrap();
        let n = strikes.entry(key).or_insert(0);
        *n += 1;
        *n
    }

    /// Strikes recorded against `key` so far (0 for unknown keys).
    pub fn strikes(&self, key: &K) -> u32 {
        self.strikes.lock().unwrap().get(key).copied().unwrap_or(0)
    }

    /// Whether `key` has reached `limit` strikes — the admission-time
    /// check. A `limit` of 0 disables quarantining entirely.
    pub fn is_quarantined(&self, key: &K, limit: u32) -> bool {
        limit > 0 && self.strikes(key) >= limit
    }

    /// Preload `count` strikes against `key`, replacing any in-memory
    /// count — how a service restores the durable strike ledger
    /// ([`ledger`](crate::ledger)) at start-up. A zero `count` is a no-op.
    pub fn load(&self, key: K, count: u32) {
        if count > 0 {
            self.strikes.lock().unwrap().insert(key, count);
        }
    }

    /// Snapshot of every struck key with its count, for operator-facing
    /// stats.
    pub fn counts(&self) -> Vec<(K, u32)> {
        self.strikes.lock().unwrap().iter().map(|(k, n)| (k.clone(), *n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_accumulate_per_key() {
        let q: Quarantine<(&str, u64)> = Quarantine::new();
        assert_eq!(q.strikes(&("a.c", 1)), 0);
        assert_eq!(q.record(("a.c", 1)), 1);
        assert_eq!(q.record(("a.c", 1)), 2);
        assert_eq!(q.record(("a.c", 2)), 1);
        assert_eq!(q.strikes(&("a.c", 1)), 2);
        assert_eq!(q.counts().len(), 2);
    }

    #[test]
    fn quarantine_trips_at_the_limit() {
        let q: Quarantine<u32> = Quarantine::new();
        q.record(9);
        q.record(9);
        assert!(!q.is_quarantined(&9, 3));
        q.record(9);
        assert!(q.is_quarantined(&9, 3));
        assert!(!q.is_quarantined(&8, 3), "other keys unaffected");
    }

    #[test]
    fn load_restores_durable_counts() {
        let q: Quarantine<(String, u64)> = Quarantine::new();
        q.load(("a.c".into(), 1), 2);
        q.load(("b.c".into(), 2), 0);
        assert_eq!(q.strikes(&("a.c".into(), 1)), 2);
        assert!(q.is_quarantined(&("a.c".into(), 1), 2));
        assert_eq!(q.counts(), vec![(("a.c".into(), 1), 2)], "zero-count load is a no-op");
    }

    #[test]
    fn zero_limit_disables_quarantine() {
        let q: Quarantine<u32> = Quarantine::new();
        for _ in 0..100 {
            q.record(1);
        }
        assert!(!q.is_quarantined(&1, 0));
    }
}
